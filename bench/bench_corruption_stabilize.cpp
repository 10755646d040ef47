// Experiment E8 (Lemma 3.6): convergence from arbitrary memory
// corruption.
//
// Paper prediction: self-stabilization — from ANY initial configuration
// the system reaches a legitimate one in a finite number of steps.
// Expected shape: rounds-to-legal grows with the corruption rate but
// remains bounded; even 100% corruption (every peer mutated) recovers.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "drtree/corruptor.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::engine::drtree_backend;
using drt::engine::scenario_runner;
using drt::util::table;

void BM_CorruptionStabilize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto rate_pct = static_cast<std::size_t>(state.range(1));

  drt::engine::overlay_backend_config bc;
  bc.net.seed = 53 + n + rate_pct;

  int rounds = 0;
  std::size_t mutations = 0;
  bool legal = false;
  drt::overlay::repair_stats repairs;
  for (auto _ : state) {
    drtree_backend be(bc);
    scenario_runner runner(be);
    runner.populate(n);
    runner.converge(80);

    drt::overlay::corruptor vandal(be.overlay(), 97 + rate_pct);
    const auto before = be.overlay().total_repairs();
    mutations = vandal.corrupt(
        drt::overlay::uniform_corruption(rate_pct / 100.0));
    rounds = runner.converge(500);
    legal = be.legal();
    repairs = be.overlay().total_repairs();
    // Report only the repairs attributable to this recovery.
    repairs.mbr_fixed -= before.mbr_fixed;
    repairs.own_chain_fixed -= before.own_chain_fixed;
    repairs.rejoins -= before.rejoins;
    repairs.children_discarded -= before.children_discarded;
    repairs.instances_dissolved -= before.instances_dissolved;
    repairs.cover_promotions -= before.cover_promotions;
    repairs.compactions -= before.compactions;
    repairs.redistributions -= before.redistributions;
    repairs.subtree_dissolutions -= before.subtree_dissolutions;
  }

  state.counters["rounds"] = rounds;
  state.counters["mutations"] = static_cast<double>(mutations);
  state.counters["legal"] = legal ? 1.0 : 0.0;

  results::instance().set_headers({"N", "corruption_%", "mutations",
                                   "rounds", "mbr_fix", "chain_fix",
                                   "rejoin", "discard", "promote",
                                   "compact+redist", "legal"});
  results::instance().add_row(
      {table::cell(n), table::cell(rate_pct), table::cell(mutations),
       table::cell(static_cast<std::int64_t>(rounds)),
       table::cell(repairs.mbr_fixed), table::cell(repairs.own_chain_fixed),
       table::cell(repairs.rejoins), table::cell(repairs.children_discarded),
       table::cell(repairs.cover_promotions),
       table::cell(repairs.compactions + repairs.redistributions),
       legal ? "yes" : "NO"});
}

}  // namespace

BENCHMARK(BM_CorruptionStabilize)
    ->ArgsProduct({{64, 256}, {5, 20, 50, 100}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E8: stabilization from arbitrary memory corruption (Lemma 3.6)",
    "Expect every corruption rate to converge back to a legitimate "
    "configuration; rounds grow with the corruption rate.")
