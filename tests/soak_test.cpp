// Fuzz/soak suites on the engine API: long randomized interleavings of
// joins, controlled leaves, crashes, restarts, memory corruption, and
// publications, with the legality checker as the oracle.  These are the
// property-based counterpart of the per-module tests: whatever the
// adversary schedule, the overlay must (a) always re-converge to a
// legitimate configuration and (b) never produce a false negative while
// legitimate.
//
// Two styles, both over engine::drtree_backend + scenario_runner:
//  * declarative — epochs of churn_wave/converge/publish_sweep phases
//    built with the scenario builder, judged from the recorder rows;
//  * adversarial — a dice-driven interleaving using the runner
//    primitives and raw backend operations (the schedule depends on the
//    evolving population, which a static timeline cannot express).
#include <gtest/gtest.h>

#include "drtree/checker.h"
#include "drtree/corruptor.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"

namespace drt::engine {
namespace {

overlay_backend_config net_config(std::uint64_t seed, double loss = 0.0) {
  overlay_backend_config bc;
  bc.net.seed = seed;
  bc.net.link.loss = loss;
  return bc;
}

struct fuzz_params {
  std::uint64_t seed;
  std::size_t initial_peers;
  int operations;
  double corruption_rate;
  const char* name;
};

class FuzzTest : public ::testing::TestWithParam<fuzz_params> {};

TEST_P(FuzzTest, AdversarialScheduleAlwaysReconverges) {
  const auto param = GetParam();
  drtree_backend be(net_config(param.seed));
  runner_config rc;
  rc.workload.seed = param.seed * 31 + 7;
  scenario_runner runner(be, rc);
  runner.populate(param.initial_peers);
  ASSERT_GE(runner.converge(80), 0);

  auto& rng = runner.rng();
  std::vector<sub_id> crashed;

  for (int op = 0; op < param.operations; ++op) {
    const auto live = be.active();
    const double dice = rng.next_double();
    if (dice < 0.30 || live.size() < 8) {
      runner.populate(1);
    } else if (dice < 0.45) {
      be.unsubscribe(live[rng.index(live.size())]);
    } else if (dice < 0.60) {
      const auto victim = live[rng.index(live.size())];
      be.crash(victim);
      crashed.push_back(victim);
    } else if (dice < 0.70 && !crashed.empty()) {
      const auto back = crashed.back();
      crashed.pop_back();
      be.restart(back);  // stale state returns
    } else if (dice < 0.80) {
      be.corrupt(param.corruption_rate, param.seed * 13 + 1 + op);
    } else {
      // Publications interleave with the damage; they may be lossy while
      // the structure is broken (that is expected), but must not wedge
      // the overlay.
      if (!live.empty()) {
        const auto publisher = live[rng.index(live.size())];
        if (be.alive(publisher)) {
          be.publish(publisher, {{rng.uniform_real(0, 1000),
                                  rng.uniform_real(0, 1000)}});
        }
      }
    }
    // Let a little time pass between operations.
    be.overlay().advance(be.overlay().config().stabilize_period / 4);
    be.overlay().settle(2000000);
  }

  const int rounds = runner.converge(400);
  ASSERT_GE(rounds, 0) << "fuzz schedule " << param.name
                       << " never re-converged";
  const auto report = overlay::checker(be.overlay()).check();
  EXPECT_TRUE(report.legal());
  EXPECT_EQ(report.reachable, report.live_peers);

  // In the legitimate configuration, accuracy is restored.
  const auto acc =
      runner.publish_sweep(60, workload::event_family::matching);
  EXPECT_EQ(acc.false_negatives, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, FuzzTest,
    ::testing::Values(fuzz_params{101, 30, 60, 0.10, "mild"},
                      fuzz_params{211, 40, 80, 0.25, "rough"},
                      fuzz_params{307, 25, 100, 0.40, "brutal"},
                      fuzz_params{401, 50, 50, 0.15, "wide"},
                      fuzz_params{503, 20, 120, 0.30, "long"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Soak, SustainedChurnWithPeriodicAccuracyChecks) {
  // The declarative version: eight epochs of churn + converge + sweep as
  // one scenario, judged entirely from the recorder.
  drtree_backend be(net_config(777));
  scenario_runner runner(be);
  const auto sc = scenario::make("sustained_churn")
                      .seed(777)
                      .populate(40)
                      .converge()
                      .repeat(8,
                              [](scenario::builder& b) {
                                b.churn_wave(6, 0.5, 20)
                                    .converge(300)
                                    .publish_sweep(
                                        40,
                                        workload::event_family::matching);
                              })
                      .build();
  const auto rec = runner.run(sc);

  int epoch = 0;
  for (const auto& m : rec.phases()) {
    if (m.phase == "converge_until_legal") {
      ASSERT_GE(m.rounds, 0) << "epoch " << epoch;
      EXPECT_EQ(m.legal, 1) << "epoch " << epoch;
    }
    if (m.phase == "publish_sweep") {
      ++epoch;
      EXPECT_EQ(m.false_negatives, 0u) << "epoch " << epoch;
      ASSERT_GT(m.events, 0u);
      // ...and deliver exactly while stable.
      EXPECT_LT(m.fp_rate(), 0.15) << "epoch " << epoch;
    }
  }
  EXPECT_EQ(epoch, 8);
}

TEST(Soak, MessageLossyNetworkStillConverges) {
  drtree_backend be(net_config(888, /*loss=*/0.10));
  scenario_runner runner(be);
  const auto sc = scenario::make("lossy_churn")
                      .seed(888)
                      .populate(30)
                      .converge(300)
                      .repeat(5,
                              [](scenario::builder& b) {
                                b.churn_wave(3, 0.6, 15).crash_burst(0.08);
                              })
                      .converge(400)
                      .build();
  const auto rec = runner.run(sc);
  const auto* heal = rec.last("converge_until_legal");
  ASSERT_NE(heal, nullptr);
  ASSERT_GE(heal->rounds, 0) << "lossy churn never re-converged";
  EXPECT_EQ(heal->legal, 1);
  EXPECT_TRUE(be.legal());
}

}  // namespace
}  // namespace drt::engine
