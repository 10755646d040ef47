// Publish-path throughput (DESIGN.md §9): events/sec and messages/event
// swept over batch size x subtree-summary mode x population.
//
// The two publish-path optimizations measured here are independent:
//  * batched multi-publish envelopes amortize routing — k events share
//    one tree descent and split only where children's admit sets
//    diverge, so messages/event and simulator work per event drop
//    roughly with the batch size;
//  * subtree summaries (occupancy grids over the instance MBRs) prune
//    descents into dead space that the plain MBR test admits, cutting
//    messages/event again at unchanged delivery accuracy.
//
// batch = 1 runs the scalar publish path (one envelope per event), so
// the batch >= 16 rows divide against an honest unbatched baseline; the
// committed baseline is expected to show >= 1.5x events/sec there.
//
// The 256-peer points are tier-1: the regression gate in
// scripts/compare_benches.sh tracks their cpu time per sweep.  The
// 10k-peer sweep (batch {1,4,16,64} x summary {mbr,both}) registers
// only when DRT_PUBLISH_THROUGHPUT is set — minutes of wall clock, run
// once per perf PR to produce the committed artifact.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "drtree/summary.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::overlay::summary_mode;
using drt::util::table;

// Benchmark argument: 0 = mbr, 2 = both — the benchmark names and the
// committed baselines carry these numbers.
summary_mode mode_of(int m) {
  return m == 0 ? summary_mode::mbr : summary_mode::both;
}

void run_throughput(benchmark::State& state, std::size_t n, std::size_t batch,
                    summary_mode mode) {
  drt::engine::overlay_backend_config cfg;
  cfg.dr.summary = mode;
  cfg.dr.summary_grid = 8;
  cfg.net.seed = 2007;
  if (n > 1000) {
    // Stretch the stabilize cadence at scale, as in bench_million_peer:
    // populate would otherwise drown in stabilizer firings.  Summaries
    // stay sound — join paths mark their delta eagerly — and two
    // explicit rounds below run the full rebuilds.
    cfg.dr.stabilize_period = 5000.0;
  }

  drt::engine::drtree_backend be(cfg);
  drt::engine::runner_config rc;
  // Sparse clustered interest with uniform events is the workload the
  // summary exists for: small filters around a few hot spots leave the
  // interior MBRs mostly dead space, so most events pay pure routing
  // descents that an occupancy grid can prune.
  rc.workload.family = drt::workload::subscription_family::clustered;
  rc.workload.subs.min_side_frac = 0.005;
  rc.workload.subs.max_side_frac = 0.02;
  rc.workload.seed = 99;
  drt::engine::scenario_runner runner(be, rc);
  runner.populate(n);
  if (n > 1000) {
    // One stabilize round per summary-refresh stride: every instance
    // runs at least one full rebuild, tightening the eagerly-marked
    // join-time grids before measurement starts.
    for (int i = 0; i < 10; ++i) be.step_round();
  } else {
    runner.converge();
  }

  const std::size_t events = n > 1000 ? 2048 : 512;
  std::uint64_t messages = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t false_negatives = 0;
  std::uint64_t total_events = 0;
  for (auto _ : state) {
    const auto stats = runner.publish_batch(
        events, batch, drt::workload::event_family::uniform);
    messages += stats.messages;
    deliveries += stats.deliveries;
    false_negatives += stats.false_negatives;
    total_events += stats.events;
  }

  const double msgs_per_event =
      total_events == 0 ? 0.0
                        : static_cast<double>(messages) /
                              static_cast<double>(total_events);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(total_events), benchmark::Counter::kIsRate);
  state.counters["msgs_per_event"] = msgs_per_event;
  state.counters["false_negatives"] = static_cast<double>(false_negatives);

  results::instance().set_headers({"N", "batch", "summary", "events",
                                   "msgs/event", "deliveries", "fn"});
  results::instance().add_row(
      {table::cell(n), table::cell(batch),
       std::string(drt::overlay::to_string(mode)), table::cell(total_events),
       table::cell(msgs_per_event, 2), table::cell(deliveries),
       table::cell(false_negatives)});
}

void BM_PublishThroughput(benchmark::State& state) {
  run_throughput(state, static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)),
                 mode_of(static_cast<int>(state.range(2))));
}

// The gated 10k sweep: DRT_BENCH_MAIN owns main(), so the registration
// happens in a static initializer guarded by the env var.
const bool registered_large = [] {
  if (std::getenv("DRT_PUBLISH_THROUGHPUT") == nullptr) return false;
  for (const int mode : {0, 2}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}, std::size_t{64}}) {
      const auto name = "BM_PublishThroughput/10000/" +
                        std::to_string(batch) + "/" + std::to_string(mode);
      benchmark::RegisterBenchmark(name.c_str(),
                                   [batch, mode](benchmark::State& s) {
                                     run_throughput(s, 10000, batch,
                                                    mode_of(mode));
                                   })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  return true;
}();

}  // namespace

BENCHMARK(BM_PublishThroughput)
    ->Args({256, 1, 0})
    ->Args({256, 16, 0})
    ->Args({256, 64, 0})
    ->Args({256, 1, 2})
    ->Args({256, 16, 2})
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "Publish throughput: batched envelopes x subtree summaries",
    "Expect >= 1.5x events/sec at batch >= 16 over the scalar path "
    "(batch = 1) and lower msgs/event with summary = both than with the "
    "plain MBR at equal accuracy; set DRT_PUBLISH_THROUGHPUT=1 to also "
    "run the 10k-peer batch x summary sweep for the committed artifact.")
