// Experiment E4 (Lemma 3.1): DR-tree height and per-peer memory vs N.
//
// Paper prediction: height O(log_m N); memory O(M log^2 N / log m) per
// peer.  Expected shape: the measured height tracks log_m N (within a
// small additive constant) and measured per-peer links stay well under
// the polylog bound while growing slowly with N.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "analysis/models.h"
#include "bench_common.h"
#include "drtree/checker.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "rtree/rtree.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::engine::drtree_backend;
using drt::engine::scenario_runner;
using drt::util::table;

void BM_HeightMemory(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto big_m = static_cast<std::size_t>(state.range(2));

  drt::engine::overlay_backend_config bc;
  bc.dr.min_children = m;
  bc.dr.max_children = big_m;
  bc.net.seed = 11 + n;

  drt::overlay::check_report report;
  drt::overlay::arena_stats protocol;
  drt::rtree::rtree_stats substrate;
  for (auto _ : state) {
    drtree_backend be(bc);
    scenario_runner runner(be);
    runner.populate(n);
    runner.converge(80);
    report = drt::overlay::checker(be.overlay()).check();
    // Real per-peer protocol-state footprint: the instance arena reports
    // what the live dr_peer levels actually occupy (slabs + per-instance
    // heap), not a link-count estimate; seen_bytes adds each live peer's
    // duplicate-suppression set beside it.
    protocol = be.overlay().memory_stats();

    // Real substrate footprint: the sequential R-tree over the same
    // filter population reports its arena size directly
    // (rtree_stats::node_count / bytes_allocated) instead of an
    // estimate derived from link counts.  Untimed: the E4 metric is
    // overlay populate/converge, not this bookkeeping build.
    state.PauseTiming();
    std::vector<std::pair<drt::spatial::box, std::uint64_t>> items;
    be.overlay().for_each_live([&](drt::spatial::peer_id p) {
      items.emplace_back(be.overlay().peer(p).filter(), p);
      return true;
    });
    drt::rtree::rtree_config rc;
    rc.min_fill = m;
    rc.max_fill = big_m;
    substrate =
        drt::rtree::rtree<drt::spatial::kDims>::bulk_load(std::move(items),
                                                          rc)
            .stats();
    state.ResumeTiming();
  }

  state.counters["height"] = static_cast<double>(report.height);
  state.counters["log_m_N"] = drt::analysis::predicted_height(n, m);
  state.counters["max_links"] = static_cast<double>(report.max_peer_links);
  state.counters["bound"] = drt::analysis::predicted_memory(n, m, big_m);
  state.counters["legal"] = report.legal() ? 1.0 : 0.0;
  state.counters["rtree_bytes"] =
      static_cast<double>(substrate.bytes_allocated);
  state.counters["arena_bytes"] = static_cast<double>(protocol.total_bytes());
  state.counters["arena_bytes_per_peer"] =
      n == 0 ? 0.0
             : static_cast<double>(protocol.total_bytes()) /
                   static_cast<double>(n);
  state.counters["seen_bytes_per_peer"] =
      n == 0 ? 0.0
             : static_cast<double>(protocol.seen_bytes) /
                   static_cast<double>(n);

  results::instance().set_headers(
      {"N", "m", "M", "height", "log_m(N)", "max_peer_links", "memory_bound",
       "arena_bytes", "arena_B/peer", "seen_B/peer", "rtree_nodes",
       "rtree_bytes", "legal"});
  results::instance().add_row(
      {table::cell(n), table::cell(m), table::cell(big_m),
       table::cell(report.height),
       table::cell(drt::analysis::predicted_height(n, m), 2),
       table::cell(report.max_peer_links),
       table::cell(drt::analysis::predicted_memory(n, m, big_m), 1),
       table::cell(protocol.total_bytes()),
       table::cell(static_cast<double>(protocol.total_bytes()) /
                       static_cast<double>(std::max<std::size_t>(n, 1)),
                   1),
       table::cell(static_cast<double>(protocol.seen_bytes) /
                       static_cast<double>(std::max<std::size_t>(n, 1)),
                   1),
       table::cell(substrate.node_count),
       table::cell(substrate.bytes_allocated),
       report.legal() ? "yes" : "NO"});
}

}  // namespace

BENCHMARK(BM_HeightMemory)
    ->ArgsProduct({{16, 64, 256, 1024}, {2}, {4}})
    ->ArgsProduct({{16, 64, 256, 1024}, {2}, {8}})
    ->ArgsProduct({{16, 64, 256, 1024}, {4}, {8}})
    ->ArgsProduct({{16, 64, 256, 1024}, {8}, {16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E4: height and memory vs N (Lemma 3.1)",
    "Expect height ~ log_m(N) + O(1) and per-peer links far below the "
    "O(M log^2 N / log m) bound.")
