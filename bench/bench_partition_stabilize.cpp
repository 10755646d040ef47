// Experiment E18 (beyond the paper's model): split-brain under network
// partitions, and re-legalization after the heal.
//
// The paper's stabilization proofs assume every pair of correct peers
// can eventually exchange messages.  A partition breaks that: each side's
// failure detectors see the other side as dead, both sides re-legalize
// *internally* (two roots — split brain, the global configuration is
// illegitimate), and events published on one side orphan every interested
// subscriber on the other.  This bench measures the canned
// split_brain_heal scenario over partition width (minority fraction) and
// duration (stabilization rounds spent cut): the false-negative rate
// while partitioned (the cost of the cut), the rounds to global legality
// after the heal (the two trees merging back through root probes), and
// the post-heal false-negative rate, which the paper's guarantee says
// must return to zero.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::engine::metrics_recorder;
using drt::util::table;

void BM_PartitionStabilize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto minority_pct = static_cast<std::size_t>(state.range(1));
  const auto down_rounds = static_cast<int>(state.range(2));

  const auto sc = drt::engine::canned::split_brain_heal(
      n, static_cast<double>(minority_pct) / 100.0, down_rounds);

  drt::engine::overlay_backend_config bc;
  bc.net.seed = 53 + n + minority_pct + static_cast<std::size_t>(down_rounds);

  metrics_recorder rec;
  for (auto _ : state) {
    drt::engine::drtree_backend be(bc);
    drt::engine::scenario_runner runner(be);
    rec = runner.run(sc);
  }

  // Timeline rows: sweep(healthy) .. partition .. sweep(during cut) ..
  // heal .. converge .. sweep(after heal).  last() sees the final
  // occurrence, so walk for the mid-partition sweep positionally.
  const drt::engine::phase_metrics* during = nullptr;
  bool inside_cut = false;
  for (const auto& m : rec.phases()) {
    if (m.phase == "partition") inside_cut = true;
    if (m.phase == "heal") break;
    if (inside_cut && m.phase == "publish_sweep") during = &m;
  }
  const auto* heal = rec.last("converge_until_legal");
  const auto* after = rec.last("publish_sweep");

  const double fn_during = during == nullptr ? 0.0 : during->fn_rate();
  state.counters["heal_rounds"] = heal->rounds;
  state.counters["fn_after"] = static_cast<double>(after->false_negatives);
  state.counters["fn_during"] = fn_during;

  results::instance().set_headers({"N", "minority_%", "down_rounds",
                                   "fn_rate_during", "heal_rounds",
                                   "fn_after_heal", "legal_after"});
  results::instance().add_row(
      {table::cell(n), table::cell(minority_pct),
       table::cell(static_cast<std::int64_t>(down_rounds)),
       table::cell(fn_during, 4),
       table::cell(static_cast<std::int64_t>(heal->rounds)),
       table::cell(static_cast<std::size_t>(after->false_negatives)),
       heal->legal == 1 ? "yes" : "NO"});
}

}  // namespace

BENCHMARK(BM_PartitionStabilize)
    ->ArgsProduct({{64}, {25, 50}, {2, 6, 12}})
    ->Args({128, 33, 8})  // wider overlay, the canned default shape
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E18: split-brain partitions and post-heal stabilization",
    "Expect nonzero FN while partitioned (events cannot cross the cut), "
    "recovery to a single legal overlay within a few rounds of the heal "
    "(root probes merge the two trees), and FN = 0 after — the paper's "
    "guarantee restored once the transport assumption holds again.")
