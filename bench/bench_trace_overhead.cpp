// Flight-recorder overhead (DESIGN.md §12): the same 256-peer scenario —
// populate, converge, publish sweeps, churn, crashes — executed with the
// trace ring off, on (ring), and unbounded (full), on fresh backends.
//
// Two claims are gated on this bench:
//  * off is free: trace = off leaves a null ring pointer, so every emit
//    site is one never-taken branch and the recorder digest column must
//    be bit-identical across all three modes (instrumentation may never
//    perturb protocol behavior — the golden-digest tests pin the same
//    invariant; BM_TraceRingOverOff fails outright if its off and ring
//    digests differ);
//  * ring is cheap: BM_TraceRingOverOff times off and ring runs
//    alternately, each on a fresh backend, and reports the ratio of the
//    fastest ring run to the fastest off run as `ring_over_off`;
//    scripts/compare_benches.sh fails when it exceeds 1.10.  Alternating
//    exposes both modes to the same machine drift, where the three
//    per-mode rows, run one after another, do not: on a loaded VM their
//    ring/off ratio read 0.76–1.46 across 8 runs of one binary.
//
// full mode is reported but not gated: it appends unbounded records plus
// one record per simulator message, and exists for post-mortem depth,
// not production cadence.
#include <benchmark/benchmark.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "bench_common.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "obs/trace.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::util::table;

drt::engine::scenario make_scenario() {
  return drt::engine::scenario::make("trace_overhead")
      .seed(99)
      .populate(256)
      .converge()
      .publish_sweep(512, drt::workload::event_family::uniform)
      .churn_wave(64)
      .converge()
      .publish_batch(512, 16, drt::workload::event_family::uniform)
      .crash_burst(0.05)
      .converge()
      .build();
}

struct run_result {
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
};

/// One run of the scenario on a fresh backend.
run_result run_once(const drt::engine::scenario& sc,
                    drt::obs::trace_mode mode) {
  drt::engine::overlay_backend_config cfg;
  cfg.net.seed = 2007;
  cfg.dr.trace = mode;
  cfg.dr.trace_dump = false;  // measure the ring, not the dump path
  drt::engine::drtree_backend be(cfg);
  drt::engine::scenario_runner runner(be);
  run_result r;
  r.digest = runner.run(sc).digest();
  if (const auto* t = be.trace()) r.records = t->emitted();
  benchmark::DoNotOptimize(r.digest);
  return r;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void run_trace_overhead(benchmark::State& state, drt::obs::trace_mode mode) {
  const auto sc = make_scenario();
  run_result r;
  for (auto _ : state) r = run_once(sc, mode);

  state.counters["digest_lo32"] =
      static_cast<double>(r.digest & 0xffffffffull);
  state.counters["trace_records"] = static_cast<double>(r.records);

  results::instance().set_headers({"trace", "digest", "records"});
  results::instance().add_row({std::string(drt::obs::to_string(mode)),
                               table::cell(r.digest), table::cell(r.records)});
}

/// Off/ring pairs per BM_TraceRingOverOff iteration.
constexpr int kPairs = 20;

/// The gated measurement: off and ring runs alternate, each timed in
/// thread CPU time, and the ratio of the fastest of each is reported.
void BM_TraceRingOverOff(benchmark::State& state) {
  const auto sc = make_scenario();
  double off = std::numeric_limits<double>::infinity();
  double ring = off;
  for (auto _ : state) {
    for (int i = 0; i < kPairs; ++i) {
      double t0 = thread_cpu_seconds();
      const auto o = run_once(sc, drt::obs::trace_mode::off);
      off = std::min(off, thread_cpu_seconds() - t0);
      t0 = thread_cpu_seconds();
      const auto r = run_once(sc, drt::obs::trace_mode::ring);
      ring = std::min(ring, thread_cpu_seconds() - t0);
      if (o.digest != r.digest) {
        state.SkipWithError("ring tracing changed the recorder digest");
        return;
      }
    }
  }
  state.counters["ring_over_off"] = ring / off;
}

void BM_TraceOff(benchmark::State& state) {
  run_trace_overhead(state, drt::obs::trace_mode::off);
}

void BM_TraceRing(benchmark::State& state) {
  run_trace_overhead(state, drt::obs::trace_mode::ring);
}

void BM_TraceFull(benchmark::State& state) {
  run_trace_overhead(state, drt::obs::trace_mode::full);
}

}  // namespace

BENCHMARK(BM_TraceOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceRing)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceFull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceRingOverOff)->Unit(benchmark::kMillisecond)->Iterations(1);

DRT_BENCH_MAIN(
    "Flight-recorder overhead: the same scenario with trace off/ring/full",
    "Expect identical digest cells in all three rows (instrumentation "
    "never perturbs the protocol) and BM_TraceRingOverOff's ring_over_off "
    "at most 1.10 — scripts/compare_benches.sh gates that ratio.")
