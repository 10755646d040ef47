// Publish-path throughput (DESIGN.md §9): events/sec and messages/event
// swept over batch size x population.
//
// Batched multi-publish envelopes amortize routing: k events share one
// tree descent and split only where children's MBRs select different
// events, so messages/event and simulator work per event drop roughly
// with the batch size.
//
// batch = 1 runs the scalar publish path (one envelope per event), so
// the batch >= 16 rows divide against an honest unbatched baseline; the
// committed baseline is expected to show >= 1.5x events/sec there.
//
// The 256-peer points are tier-1: the regression gate in
// scripts/compare_benches.sh tracks their cpu time per sweep.  The
// 10k-peer sweep (batch {1,4,16,64}) registers only when
// DRT_PUBLISH_THROUGHPUT is set — minutes of wall clock, run once per
// perf PR to produce the committed artifact.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::util::table;

void run_throughput(benchmark::State& state, std::size_t n,
                    std::size_t batch) {
  drt::engine::overlay_backend_config cfg;
  cfg.net.seed = 2007;
  if (n > 1000) {
    // Stretch the stabilize cadence at scale, as in bench_million_peer:
    // populate would otherwise drown in stabilizer firings.
    cfg.dr.stabilize_period = 5000.0;
  }

  drt::engine::drtree_backend be(cfg);
  drt::engine::runner_config rc;
  // Sparse clustered interest with uniform events: small filters around
  // a few hot spots leave the interior MBRs mostly dead space, so most
  // events pay pure routing descents — the cost batching amortizes.
  rc.workload.family = drt::workload::subscription_family::clustered;
  rc.workload.subs.min_side_frac = 0.005;
  rc.workload.subs.max_side_frac = 0.02;
  rc.workload.seed = 99;
  drt::engine::scenario_runner runner(be, rc);
  runner.populate(n);
  runner.converge();

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

  results::instance().set_headers(
      {"N", "batch", "events", "msgs/event", "deliveries", "fn"});
  results::instance().add_row(
      {table::cell(n), table::cell(batch), table::cell(total_events),
       table::cell(msgs_per_event, 2), table::cell(deliveries),
       table::cell(false_negatives)});
}

void BM_PublishThroughput(benchmark::State& state) {
  run_throughput(state, static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
}

// The gated 10k sweep: DRT_BENCH_MAIN owns main(), so the registration
// happens in a static initializer guarded by the env var.
const bool registered_large = [] {
  if (std::getenv("DRT_PUBLISH_THROUGHPUT") == nullptr) return false;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
    std::string name = "BM_PublishThroughput/10000/";
    name += std::to_string(batch);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [batch](benchmark::State& s) {
                                   run_throughput(s, 10000, batch);
                                 })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return true;
}();

}  // namespace

BENCHMARK(BM_PublishThroughput)
    ->Args({256, 1})
    ->Args({256, 16})
    ->Args({256, 64})
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "Publish throughput: batched envelopes",
    "Expect >= 1.5x events/sec at batch >= 16 over the scalar path "
    "(batch = 1) at equal accuracy; set DRT_PUBLISH_THROUGHPUT=1 to also "
    "run the 10k-peer batch sweep for the committed artifact.")
