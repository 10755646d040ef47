// Experiment E11 (§1 claim): publish/subscribe operations logarithmic in
// the network size.
//
// Expected shape: publication hop count (longest delivery path) and join
// message count both track ~ 2*log_m(N); messages per event grow with
// the matching population, not with N.
#include <benchmark/benchmark.h>

#include "analysis/models.h"
#include "bench_common.h"
#include "drtree/checker.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::engine::drtree_backend;
using drt::engine::scenario_runner;
using drt::util::table;

void BM_Latency(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));

  drt::engine::overlay_backend_config bc;
  bc.net.seed = 83 + n;

  drt::engine::sweep_stats acc;
  std::size_t height = 0;
  double join_msgs = 0.0;
  for (auto _ : state) {
    drtree_backend be(bc);
    scenario_runner runner(be);
    runner.populate(n);
    runner.converge(80);
    height = drt::overlay::checker(be.overlay()).check().height;

    // Join (subscribe) cost on the full overlay.
    drt::util::accumulator joins;
    const auto& profile = runner.config().workload;
    const auto rects = drt::workload::make_subscriptions(
        profile.family, 10, runner.rng(), profile.subs);
    for (const auto& r : rects) {
      const auto m0 = be.overlay().sim().metrics().messages_sent;
      runner.add(r);
      joins.add(static_cast<double>(
          be.overlay().sim().metrics().messages_sent - m0));
    }
    join_msgs = joins.mean();

    acc = runner.publish_sweep(200, drt::workload::event_family::matching);
  }

  state.counters["mean_hops"] = acc.mean_hops();
  state.counters["max_hops"] = static_cast<double>(acc.max_hops);
  state.counters["join_msgs"] = join_msgs;
  state.counters["height"] = static_cast<double>(height);

  results::instance().set_headers({"N", "height", "publish_hops(mean)",
                                   "publish_hops(max)", "join_msgs",
                                   "msgs/event", "2*log_m(N)"});
  results::instance().add_row(
      {table::cell(n), table::cell(height), table::cell(acc.mean_hops(), 2),
       table::cell(acc.max_hops), table::cell(join_msgs, 1),
       table::cell(acc.messages_per_event(), 1),
       table::cell(2 * drt::analysis::predicted_height(n, 2), 2)});
}

}  // namespace

BENCHMARK(BM_Latency)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E11: publish/subscribe latency vs N (§1 logarithmic-guarantee claim)",
    "Expect publish hops and join messages to track ~2*log(N): doubling N "
    "adds a constant number of hops.")
