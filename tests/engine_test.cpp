// Engine tests: the unified backend interface, the declarative scenario
// builder, the scenario runner, and the determinism guarantees the
// redesign promises (DESIGN.md §6):
//
//  * same scenario + seed  =>  bit-identical metrics_recorder output
//    across two runs (per backend);
//  * dr_overlay vs broker adapters on a churn-free timeline  =>
//    identical recorder digests (they drive the identical protocol
//    stack through identical operations);
//  * every backend (DR-tree + 4 baselines) executes the canned
//    rolling_churn scenario through the one runner with the one schema;
//  * capability masks: phases a backend cannot execute are recorded as
//    skipped, never silently faked.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/containment_tree.h"
#include "baselines/flooding.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "util/rng.h"

namespace drt::engine {
namespace {

overlay_backend_config small_config(std::uint64_t seed) {
  overlay_backend_config bc;
  bc.net.seed = seed;
  return bc;
}

// ------------------------------------------------------------- builder

TEST(ScenarioBuilder, BuildsTypedTimelineInOrder) {
  const auto sc = scenario::make("demo")
                      .seed(42)
                      .family(workload::subscription_family::clustered)
                      .populate(10)
                      .converge(50)
                      .churn_wave(8, 0.25, 2)
                      .crash_burst(0.5, true)
                      .corruption_burst(0.3)
                      .restart_burst(3)
                      .publish_sweep(20, workload::event_family::uniform)
                      .param_ramp(ramp_target::publish_count, 5, 25, 3)
                      .build();
  EXPECT_EQ(sc.name, "demo");
  EXPECT_EQ(sc.workload.seed, 42u);
  EXPECT_EQ(sc.workload.family, workload::subscription_family::clustered);
  ASSERT_EQ(sc.timeline.size(), 8u);
  EXPECT_STREQ(phase_name(sc.timeline[0]), "populate");
  EXPECT_STREQ(phase_name(sc.timeline[1]), "converge_until_legal");
  EXPECT_STREQ(phase_name(sc.timeline[2]), "churn_wave");
  EXPECT_STREQ(phase_name(sc.timeline[3]), "crash_burst");
  EXPECT_STREQ(phase_name(sc.timeline[4]), "corruption_burst");
  EXPECT_STREQ(phase_name(sc.timeline[5]), "restart_burst");
  EXPECT_STREQ(phase_name(sc.timeline[6]), "publish_sweep");
  EXPECT_STREQ(phase_name(sc.timeline[7]), "param_ramp");

  const auto& churn = std::get<churn_wave_phase>(sc.timeline[2]);
  EXPECT_EQ(churn.ops, 8u);
  EXPECT_DOUBLE_EQ(churn.join_fraction, 0.25);
  const auto& crash = std::get<crash_burst_phase>(sc.timeline[3]);
  EXPECT_TRUE(crash.include_root);
}

TEST(ScenarioBuilder, RepeatSplicesBlockTimes) {
  const auto sc = scenario::make("waves")
                      .populate(10)
                      .repeat(3,
                              [](scenario::builder& b) {
                                b.churn_wave(4).converge();
                              })
                      .build();
  ASSERT_EQ(sc.timeline.size(), 1u + 3u * 2u);
  EXPECT_STREQ(phase_name(sc.timeline[1]), "churn_wave");
  EXPECT_STREQ(phase_name(sc.timeline[2]), "converge_until_legal");
  EXPECT_STREQ(phase_name(sc.timeline[5]), "churn_wave");
}

// -------------------------------------------------------- capabilities

TEST(Capabilities, OverlayBackendsDoEverything) {
  drtree_backend dr(small_config(3));
  broker_backend br(small_config(3));
  for (backend* be : {static_cast<backend*>(&dr),
                      static_cast<backend*>(&br)}) {
    EXPECT_TRUE(be->can(cap_unsubscribe));
    EXPECT_TRUE(be->can(cap_crash));
    EXPECT_TRUE(be->can(cap_restart));
    EXPECT_TRUE(be->can(cap_corruption));
    EXPECT_TRUE(be->can(cap_stabilize));
  }
}

TEST(Capabilities, BaselinesOnlyRebuild) {
  baseline_backend be(std::make_unique<baselines::containment_tree>());
  EXPECT_TRUE(be.can(cap_unsubscribe));
  EXPECT_FALSE(be.can(cap_crash));
  EXPECT_FALSE(be.can(cap_restart));
  EXPECT_FALSE(be.can(cap_corruption));
  EXPECT_FALSE(be.can(cap_stabilize));
}

TEST(Capabilities, UnsupportedPhasesAreRecordedAsSkipped) {
  baseline_backend be(std::make_unique<baselines::flooding>(4, 7));
  scenario_runner runner(be);
  const auto rec = runner.run(scenario::make("hostile")
                                  .populate(12)
                                  .crash_burst(0.5)
                                  .corruption_burst(0.5)
                                  .restart_burst(4)
                                  .build());
  ASSERT_GE(rec.phases().size(), 4u);
  EXPECT_FALSE(rec.phases()[0].skipped);  // populate always works
  EXPECT_TRUE(rec.phases()[1].skipped);
  EXPECT_TRUE(rec.phases()[2].skipped);
  EXPECT_TRUE(rec.phases()[3].skipped);
  // Skipped means *nothing happened*: population untouched.
  EXPECT_EQ(rec.phases()[3].population, 12u);
  EXPECT_EQ(rec.phases()[1].crashes, 0u);
}

// ------------------------------------------------- backend operations

TEST(DrtreeBackend, DynamicOpsRoundTrip) {
  drtree_backend be(small_config(11));
  scenario_runner runner(be);
  const auto ids = runner.populate(20);
  ASSERT_EQ(ids.size(), 20u);
  EXPECT_EQ(be.population(), 20u);
  EXPECT_GE(runner.converge(200), 0);
  EXPECT_TRUE(be.legal());
  EXPECT_NE(be.root(), kNoSub);

  // Controlled leave shrinks the population.
  EXPECT_TRUE(be.unsubscribe(ids[3]));
  EXPECT_FALSE(be.alive(ids[3]));
  EXPECT_EQ(be.population(), 19u);

  // Crash + restart round-trips through the stale-state path.
  EXPECT_TRUE(be.crash(ids[5]));
  EXPECT_FALSE(be.alive(ids[5]));
  EXPECT_TRUE(be.restart(ids[5]));
  EXPECT_TRUE(be.alive(ids[5]));
  EXPECT_GE(runner.converge(300), 0);

  const auto s = be.shape();
  EXPECT_EQ(s.population, 19u);
  EXPECT_GE(s.height, 1u);
  EXPECT_GT(be.counters().messages, 0u);
}

TEST(DrtreeBackend, RestartAfterUnsubscribeKeepsGroundTruthExact) {
  // An unsubscribed peer leaves the overlay's ground-truth filter index;
  // a later restart of that same sub_id (the backend API permits it)
  // must re-index the filter, or publish accounting silently undercounts
  // interested/false negatives.
  drtree_backend be(small_config(29));
  scenario_runner runner(be);
  const auto ids = runner.populate(8);
  ASSERT_EQ(ids.size(), 8u);
  EXPECT_GE(runner.converge(200), 0);

  const auto victim = ids[2];
  const auto filter =
      be.overlay().peer(static_cast<spatial::peer_id>(victim)).filter();
  EXPECT_TRUE(be.unsubscribe(victim));
  EXPECT_FALSE(be.alive(victim));
  EXPECT_TRUE(be.restart(victim));
  EXPECT_TRUE(be.alive(victim));
  EXPECT_GE(runner.converge(300), 0);

  // Publish into the revived peer's filter: ground truth must count it.
  const auto r = be.publish(ids[0], filter.center());
  std::size_t expected = 0;
  be.overlay().for_each_live([&](spatial::peer_id p) {
    if (be.overlay().peer(p).filter().contains(filter.center())) ++expected;
    return true;
  });
  EXPECT_GE(expected, 1u);  // at least the revived peer itself
  EXPECT_EQ(r.interested, expected);
}

// sub_id is 64 bits, peer ids 32: (1 << 32) + s must not be read as s.
void expect_wide_ids_never_name_a_peer(backend& be) {
  SCOPED_TRACE(be.name());
  const auto s = be.subscribe(geo::make_rect2(0, 0, 100, 100));
  be.subscribe(geo::make_rect2(50, 50, 150, 150));
  const sub_id forged = (sub_id{1} << 32) + s;
  EXPECT_FALSE(be.alive(forged));
  EXPECT_FALSE(be.unsubscribe(forged));
  EXPECT_FALSE(be.crash(forged));
  EXPECT_TRUE(be.alive(s));
  EXPECT_EQ(be.population(), 2u);

  ASSERT_TRUE(be.crash(s));
  EXPECT_FALSE(be.restart(forged));
  EXPECT_FALSE(be.alive(s));
  EXPECT_TRUE(be.restart(s));
}

TEST(DrtreeBackend, WideIdsNeverNameAPeer) {
  drtree_backend dr(small_config(5));
  expect_wide_ids_never_name_a_peer(dr);
  broker_backend br(small_config(5));
  expect_wide_ids_never_name_a_peer(br);
}

TEST(DrtreeBackend, BackendAndOverlayPublishesShareEventIds) {
  // Event ids come from shard 0's overlay counter, so a backend publish
  // and a direct overlay publish never reuse an id: a reused id makes
  // every peer that saw the first event drop the second as a duplicate.
  drtree_backend be({}, 1);
  const spatial::pt v{{500.0, 500.0}};
  std::vector<sub_id> subs;
  for (int i = 0; i < 6; ++i) {
    const double r = 50.0 + 20.0 * i;
    subs.push_back(
        be.subscribe(geo::make_rect2(500 - r, 500 - r, 500 + r, 500 + r)));
  }
  be.settle();

  const auto first = be.publish(subs[0], v);
  EXPECT_EQ(first.interested, 6u);
  EXPECT_EQ(first.false_negatives, 0u);
  const auto second = be.overlay(0).publish_and_drain(
      static_cast<spatial::peer_id>(subs[1]), v);
  EXPECT_EQ(second.interested, 6u);
  EXPECT_EQ(second.delivered, 6u);
  EXPECT_EQ(second.false_negatives, 0u);
}

TEST(DrtreeBackend, IdArithmeticMatchesAPlainRecord) {
  // Global id s lives on shard s % S as local peer s / S.  Random
  // membership operations against a per-id record: after every step the
  // backend must agree on every issued id and refuse every id it never
  // issued.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(shards);
    drtree_backend be(small_config(61), shards);
    util::rng rng(97 + shards);
    std::vector<bool> live;  // indexed by issued id
    auto random_box = [&] {
      const double x = rng.uniform_real(0, 900);
      const double y = rng.uniform_real(0, 900);
      return geo::make_rect2(x, y, x + rng.uniform_real(1, 100),
                             y + rng.uniform_real(1, 100));
    };
    auto pick = [&](bool want_live) {
      std::vector<sub_id> ids;
      for (sub_id s = 0; s < live.size(); ++s) {
        if (live[s] == want_live) ids.push_back(s);
      }
      return ids.empty() ? kNoSub : ids[rng.index(ids.size())];
    };

    for (int step = 0; step < 160; ++step) {
      const auto op = live.size() < 6 ? 0 : rng.index(5);
      if (op <= 1) {
        EXPECT_EQ(be.subscribe(random_box()), live.size());
        live.push_back(true);
      } else if (const auto s = pick(op != 4); s != kNoSub) {
        // Unsubscribe, crash or restart applies once; a repeat refuses.
        for (const bool first : {true, false}) {
          const bool ok = op == 2   ? be.unsubscribe(s)
                          : op == 3 ? be.crash(s)
                                    : be.restart(s);
          EXPECT_EQ(ok, first) << "op " << op << " id " << s;
        }
        live[s] = op == 4;
      }
      if (step % 16 == 15) be.step_round();

      std::vector<sub_id> expected;
      for (sub_id s = 0; s < live.size(); ++s) {
        EXPECT_EQ(be.alive(s), live[s]) << "id " << s << " step " << step;
        EXPECT_FALSE(be.alive((sub_id{1} << 32) + s));
        if (live[s]) expected.push_back(s);
      }
      const sub_id next = live.size();
      EXPECT_FALSE(be.alive(next));
      EXPECT_FALSE(be.alive(kNoSub));
      EXPECT_FALSE(be.unsubscribe(next));
      EXPECT_FALSE(be.crash(next));
      EXPECT_FALSE(be.restart(next));
      EXPECT_EQ(be.active(), expected) << "step " << step;
      EXPECT_EQ(be.population(), expected.size());
      const auto r = be.root();
      if (r != kNoSub) {
        EXPECT_EQ(r % shards, 0u) << "root " << r;
        EXPECT_EQ(r / shards, be.overlay(0).current_root());
        EXPECT_TRUE(be.alive(r));
      }
    }
  }
}

TEST(BaselineBackend, IncrementalRebuildSemantics) {
  baseline_backend be(std::make_unique<baselines::containment_tree>());
  const auto r0 = be.counters().rebuilds;  // the initial empty build
  const auto a = be.subscribe(geo::make_rect2(0, 0, 50, 50));
  const auto b = be.subscribe(geo::make_rect2(10, 10, 40, 40));
  EXPECT_EQ(be.counters().rebuilds, r0 + 2);
  EXPECT_EQ(be.population(), 2u);

  const auto d = be.publish(a, {{20, 20}});
  EXPECT_EQ(d.interested, 2u);
  EXPECT_EQ(d.delivered, 2u);
  EXPECT_EQ(d.false_negatives, 0u);

  EXPECT_TRUE(be.unsubscribe(b));
  EXPECT_EQ(be.counters().rebuilds, r0 + 3);
  EXPECT_FALSE(be.alive(b));
  EXPECT_FALSE(be.unsubscribe(b));  // second time: unknown
  EXPECT_EQ(be.shape().population, 1u);
}

// --------------------------------------------------------- determinism

scenario churny_scenario(std::uint64_t seed) {
  return scenario::make("det_churn")
      .seed(seed)
      .populate(24)
      .converge()
      .repeat(2,
              [](scenario::builder& b) {
                b.churn_wave(8, 0.5, 6).converge().publish_sweep(
                    30, workload::event_family::matching);
              })
      .build();
}

TEST(Determinism, SameScenarioSameSeedIsBitIdentical) {
  const auto sc = churny_scenario(99);
  auto run_once = [&] {
    drtree_backend be(small_config(17));
    scenario_runner runner(be);
    return runner.run(sc);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.phases().size(), b.phases().size());
  for (std::size_t i = 0; i < a.phases().size(); ++i) {
    EXPECT_EQ(a.phases()[i].messages, b.phases()[i].messages) << i;
    EXPECT_EQ(a.phases()[i].population, b.phases()[i].population) << i;
  }
}

TEST(Determinism, DifferentSeedDiverges) {
  drtree_backend be1(small_config(17));
  scenario_runner r1(be1);
  drtree_backend be2(small_config(17));
  scenario_runner r2(be2);
  EXPECT_NE(r1.run(churny_scenario(99)).digest(),
            r2.run(churny_scenario(100)).digest());
}

TEST(Determinism, DrtreeAndBrokerAgreeOnChurnFreeTimeline) {
  // The two overlay adapters drive the identical protocol stack; on a
  // churn-free timeline every operation, message, and accuracy counter
  // must match bit for bit.
  const auto sc = scenario::make("churn_free")
                      .seed(7)
                      .populate(24)
                      .converge()
                      .publish_sweep(50, workload::event_family::matching)
                      .publish_sweep(50, workload::event_family::uniform)
                      .build();
  drtree_backend dr(small_config(23));
  scenario_runner rd(dr);
  const auto rec_dr = rd.run(sc);

  broker_backend br(small_config(23));
  scenario_runner rb(br);
  const auto rec_br = rb.run(sc);

  EXPECT_EQ(rec_dr.digest(), rec_br.digest());
  ASSERT_EQ(rec_dr.phases().size(), rec_br.phases().size());
  const auto* sweep_dr = rec_dr.last("publish_sweep");
  const auto* sweep_br = rec_br.last("publish_sweep");
  ASSERT_NE(sweep_dr, nullptr);
  ASSERT_NE(sweep_br, nullptr);
  EXPECT_EQ(sweep_dr->deliveries, sweep_br->deliveries);
  EXPECT_EQ(sweep_dr->false_positives, sweep_br->false_positives);
  EXPECT_EQ(sweep_dr->messages, sweep_br->messages);
  EXPECT_EQ(sweep_dr->max_hops, sweep_br->max_hops);
}

// -------------------------------------------------- cross-backend runs

TEST(CrossBackend, AllFiveRunRollingChurnWithOneSchema) {
  const auto sc = canned::rolling_churn(/*n=*/20, /*waves=*/2, /*ops=*/6,
                                        /*seed=*/5);
  const auto headers = metrics_recorder::headers();
  std::size_t rows = 0;
  for (auto& be : make_all_backends(small_config(31))) {
    scenario_runner runner(*be);
    const auto rec = runner.run(sc);
    // Identical timeline: every phase executed (rolling churn needs only
    // subscribe/unsubscribe/publish), none skipped, same row count.
    if (rows == 0) rows = rec.phases().size();
    EXPECT_EQ(rec.phases().size(), rows) << be->name();
    for (const auto& m : rec.phases()) {
      EXPECT_FALSE(m.skipped) << be->name() << " phase " << m.phase;
    }
    const auto t = rec.to_table();
    EXPECT_EQ(t.headers(), headers) << be->name();
    // Ground truth is backend-independent: the final sweep publishes the
    // same events to the same filter population everywhere.
    const auto* sweep = rec.last("publish_sweep");
    ASSERT_NE(sweep, nullptr) << be->name();
    EXPECT_GT(sweep->events, 0u) << be->name();
    EXPECT_EQ(sweep->false_negatives, 0u) << be->name();
  }
  EXPECT_GT(rows, 0u);
}

TEST(CrossBackend, IdenticalOperationSequencesAcrossBackends) {
  // The runner owns all randomness, so every backend sees the same
  // join/leave schedule and the same ground-truth interest counts.
  const auto sc = canned::rolling_churn(16, 2, 6, 13);
  std::vector<std::vector<std::size_t>> interested_per_backend;
  for (auto& be : make_all_backends(small_config(37))) {
    scenario_runner runner(*be);
    const auto rec = runner.run(sc);
    std::vector<std::size_t> interests;
    std::vector<std::size_t> pops;
    for (const auto& m : rec.phases()) {
      if (m.phase == "publish_sweep") interests.push_back(m.interested);
      pops.push_back(m.population);
    }
    interested_per_backend.push_back(interests);
    if (interested_per_backend.size() > 1) {
      EXPECT_EQ(interested_per_backend.front(),
                interested_per_backend.back())
          << be->name();
    }
  }
}

// ------------------------------------------------------ canned + ramps

TEST(CannedScenarios, FlashCrowdConvergesWithExactDelivery) {
  drtree_backend be(small_config(41));
  scenario_runner runner(be);
  const auto rec = runner.run(canned::flash_crowd(12, 36, 3));
  const auto* conv = rec.last("converge_until_legal");
  ASSERT_NE(conv, nullptr);
  EXPECT_GE(conv->rounds, 0);
  EXPECT_EQ(conv->legal, 1);
  const auto* sweep = rec.last("publish_sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->false_negatives, 0u);
  EXPECT_EQ(sweep->population, 48u);
}

TEST(CannedScenarios, MassacreThenHealHeals) {
  drtree_backend be(small_config(43));
  scenario_runner runner(be);
  const auto rec = runner.run(canned::massacre_then_heal(40, 1.0 / 3, 0.5, 9));
  const auto* crash = rec.last("crash_burst");
  ASSERT_NE(crash, nullptr);
  EXPECT_GE(crash->crashes, 13u);
  const auto* heal = rec.last("converge_until_legal");
  ASSERT_NE(heal, nullptr);
  EXPECT_GE(heal->rounds, 0) << "massacre never healed";
  const auto* sweep = rec.last("publish_sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->false_negatives, 0u);
}

TEST(ParamRamp, PublishCountRampRecordsOneRowPerStep) {
  drtree_backend be(small_config(47));
  scenario_runner runner(be);
  const auto rec = runner.run(
      scenario::make("ramp")
          .populate(16)
          .converge()
          .param_ramp(ramp_target::publish_count, 10, 50, 3)
          .build());
  std::vector<double> values;
  for (const auto& m : rec.phases()) {
    if (m.phase == "param_ramp") values.push_back(m.ramp);
  }
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 10.0);
  EXPECT_DOUBLE_EQ(values[1], 30.0);
  EXPECT_DOUBLE_EQ(values[2], 50.0);
  for (const auto& m : rec.phases()) {
    if (m.phase == "param_ramp") {
      EXPECT_EQ(m.events, static_cast<std::size_t>(m.ramp));
      EXPECT_EQ(m.false_negatives, 0u);
    }
  }
}

TEST(ParamRamp, CrashFractionRampHealsBetweenSteps) {
  drtree_backend be(small_config(53));
  scenario_runner runner(be);
  const auto rec = runner.run(
      scenario::make("crash_ramp")
          .populate(30)
          .converge()
          .param_ramp(ramp_target::crash_fraction, 0.1, 0.3, 2)
          .build());
  std::size_t ramp_rows = 0;
  for (const auto& m : rec.phases()) {
    if (m.phase != "param_ramp") continue;
    ++ramp_rows;
    EXPECT_GT(m.crashes, 0u);
    EXPECT_GE(m.rounds, 0) << "ramp step did not re-converge";
    EXPECT_EQ(m.legal, 1);
  }
  EXPECT_EQ(ramp_rows, 2u);
}

// -------------------------------------------------------- restart path

TEST(RestartBurst, RevivesMostRecentCrashes) {
  drtree_backend be(small_config(59));
  scenario_runner runner(be);
  const auto rec = runner.run(scenario::make("restarts")
                                  .populate(24)
                                  .converge()
                                  .crash_count(6)
                                  .converge(300)
                                  .restart_burst(6)
                                  .converge(300)
                                  .build());
  const auto* restart = rec.last("restart_burst");
  ASSERT_NE(restart, nullptr);
  EXPECT_EQ(restart->restarts, 6u);
  EXPECT_EQ(restart->population, 24u);  // everyone is back
  const auto* final_conv = rec.last("converge_until_legal");
  EXPECT_GE(final_conv->rounds, 0) << "stale-state restarts never absorbed";
}

}  // namespace
}  // namespace drt::engine
