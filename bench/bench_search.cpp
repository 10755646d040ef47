// Experiment E16 (§1: the DR-tree is "suitable for performing efficient
// data storage or search"): distributed range search.
//
// Expected shape: searches are exact (no missed, no spurious results —
// the rendezvous-free analog of the R-tree guarantee), selective queries
// cost O(log N + answer size) messages rather than O(N), and the cost
// crosses over toward N only as the query covers the whole workspace.
#include <benchmark/benchmark.h>

#include "analysis/models.h"
#include "bench_common.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::util::table;

void BM_Search(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto side_pct = static_cast<std::size_t>(state.range(1));

  drt::engine::overlay_backend_config bc;
  bc.net.seed = 141 + n;
  drt::engine::drtree_backend be(bc);
  drt::engine::scenario_runner runner(be);
  runner.populate(n);
  runner.converge(80);

  auto& rng = runner.rng();
  const auto& ws = bc.dr.workspace;
  const double side = (ws.hi[0] - ws.lo[0]) *
                      static_cast<double>(side_pct) / 100.0;

  drt::util::accumulator msgs;
  drt::util::accumulator hops;
  drt::util::accumulator answers;
  std::size_t missed = 0;
  std::size_t spurious = 0;
  const auto live = be.overlay().live_peers();
  for (auto _ : state) {
    for (int q = 0; q < 30; ++q) {
      const double x = rng.uniform_real(ws.lo[0], ws.hi[0] - side);
      const double y = rng.uniform_real(ws.lo[1], ws.hi[1] - side);
      const auto query = drt::geo::make_rect2(x, y, x + side, y + side);
      const auto r = be.overlay().search_and_drain(
          live[rng.index(live.size())], query);
      msgs.add(static_cast<double>(r.messages));
      hops.add(static_cast<double>(r.max_hops));
      answers.add(static_cast<double>(r.hits.size()));
      missed += r.false_negatives;
      spurious += r.false_positives;
    }
  }

  state.counters["msgs"] = msgs.mean();
  state.counters["missed"] = static_cast<double>(missed);

  results::instance().set_headers({"N", "query_side_%", "answers(mean)",
                                   "msgs(mean)", "hops(max,mean)", "missed",
                                   "spurious"});
  results::instance().add_row(
      {table::cell(n), table::cell(side_pct), table::cell(answers.mean(), 1),
       table::cell(msgs.mean(), 1), table::cell(hops.mean(), 1),
       table::cell(missed), table::cell(spurious)});
}

}  // namespace

BENCHMARK(BM_Search)
    ->ArgsProduct({{64, 256, 1024}, {2, 10, 40, 100}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E16: distributed range search (§1 'data storage or search')",
    "Expect exact answers everywhere (missed = spurious = 0); selective "
    "queries cost ~ log N + answer size messages; full-workspace queries "
    "approach one message per peer.")
