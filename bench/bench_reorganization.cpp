// Experiment E15 (§3.2 "Dynamic Reorganizations"): FP-driven parent/child
// exchange under biased event workloads.
//
// The mechanism matters when the static organization is suboptimal:
// "under bias event workloads ... small false positive regions are hit by
// many events"; nodes then count their false positives against what each
// child would have experienced and swap when a child fits better.
//
// With the paper's largest-MBR election the tree is already close to
// optimal, so the experiment ablates the election policy: under *random*
// election (deliberately suboptimal parents) the reorganization recovers
// most of the lost accuracy; under largest-MBR it is a no-op.  Expected
// shape: fp(random, reorg on, phase 2) << fp(random, reorg off, phase 2),
// while the largest-MBR rows stay flat and low.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::engine::drtree_backend;
using drt::engine::scenario_runner;
using drt::overlay::election_policy;
using drt::util::table;

void BM_Reorganization(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  const auto policy = static_cast<election_policy>(state.range(1));

  drt::engine::overlay_backend_config bc;
  bc.dr.fp_reorganization = enabled;
  bc.dr.election = policy;
  bc.net.seed = 131;
  drt::engine::runner_config rc;
  rc.workload.family = drt::workload::subscription_family::zipf_sized;

  drt::engine::sweep_stats warmup;
  drt::engine::sweep_stats after;
  for (auto _ : state) {
    drtree_backend be(bc);
    scenario_runner runner(be, rc);
    runner.populate(100);
    runner.converge(80);
    // Phase 1: the biased stream hits the initial organization.
    warmup = runner.publish_sweep(500, drt::workload::event_family::hotspot);
    // Give the stabilizers time to act on the collected FP counters.
    runner.converge(20);
    // Phase 2: same stream against the (possibly) reorganized overlay.
    after = runner.publish_sweep(500, drt::workload::event_family::hotspot);
  }

  state.counters["fp_before"] = warmup.fp_rate();
  state.counters["fp_after"] = after.fp_rate();

  results::instance().set_headers({"election", "reorganization",
                                   "fp_phase1", "fp_phase2",
                                   "improvement_%", "false_negatives"});
  const double improvement =
      warmup.fp_rate() == 0.0
          ? 0.0
          : 100.0 * (warmup.fp_rate() - after.fp_rate()) / warmup.fp_rate();
  results::instance().add_row(
      {to_string(policy), enabled ? "on" : "off",
       table::cell(warmup.fp_rate(), 4), table::cell(after.fp_rate(), 4),
       table::cell(improvement, 1),
       table::cell(warmup.false_negatives + after.false_negatives)});
}

}  // namespace

BENCHMARK(BM_Reorganization)
    ->ArgsProduct({{0, 1},      // reorg off / on
                   {0, 2}})     // largest_mbr / random election
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E15: FP-driven dynamic reorganization (§3.2)",
    "Expect reorganization to recover accuracy under a deliberately "
    "suboptimal (random) election, and to be a no-op under the paper's "
    "largest-MBR election; false negatives stay 0 throughout.")
