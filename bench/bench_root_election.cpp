// Experiment E12 (Fig. 6 ablation): root/parent election policy.
//
// The paper elects the member with the largest MBR coverage so containers
// end up above containees, preserving the containment-awareness
// properties and minimizing the false-positive area.  Expected shape:
// largest-MBR election yields the lowest FP rate and the fewest weak-
// containment violations; smallest-MBR (adversarial) is the worst;
// random sits between.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "drtree/checker.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::engine::drtree_backend;
using drt::engine::scenario_runner;
using drt::overlay::election_policy;
using drt::util::table;
using drt::workload::subscription_family;

void BM_RootElection(benchmark::State& state) {
  const auto policy = static_cast<election_policy>(state.range(0));
  const auto family = static_cast<subscription_family>(state.range(1));
  const std::size_t n = 100;

  drt::engine::overlay_backend_config bc;
  bc.dr.election = policy;
  bc.net.seed = 89 + state.range(0) * 11 + state.range(1);
  drt::engine::runner_config rc;
  rc.workload.family = family;

  drt::engine::sweep_stats acc;
  drt::overlay::check_report report;
  for (auto _ : state) {
    drtree_backend be(bc);
    scenario_runner runner(be, rc);
    runner.populate(n);
    runner.converge(80);
    report = drt::overlay::checker(be.overlay())
                 .check(/*check_containment=*/true);
    acc = runner.publish_sweep(300, drt::workload::event_family::matching);
  }

  state.counters["fp_rate"] = acc.fp_rate();
  state.counters["weak_violations"] = static_cast<double>(report.weak_violations);

  results::instance().set_headers({"election", "workload", "fp_rate",
                                   "weak_violations", "containment_pairs",
                                   "false_negatives"});
  results::instance().add_row(
      {to_string(policy), to_string(family), table::cell(acc.fp_rate(), 4),
       table::cell(report.weak_violations),
       table::cell(report.containment_pairs),
       table::cell(acc.false_negatives)});
}

}  // namespace

BENCHMARK(BM_RootElection)
    ->ArgsProduct({{0, 1, 2},     // largest / smallest / random
                   {0, 1, 3}})    // uniform / clustered / nested
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E12: root-election ablation (Fig. 6)",
    "Expect the paper's largest-MBR election to achieve the lowest FP "
    "rate and fewest containment violations; smallest-MBR the highest.")
