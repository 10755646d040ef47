// The network-model subsystem (DESIGN.md §7).
//
// Four contracts pinned here:
//  1. The default uniform model is a strict no-op refactor of the old
//     hard-coded delay/loss fields — golden recorder digests captured on
//     the pre-subsystem code must reproduce bit-for-bit, with the legacy
//     shorthand fields and with an explicit uniform_model_config alike.
//  2. Every model is deterministic: same scenario + seed + net config ⇒
//     bit-identical metrics_recorder digest.
//  3. The cluster and dynamic models actually shape traffic: intra beats
//     inter latency, partitions cut (and purge) cross-side traffic,
//     duplication re-delivers, degradation stretches delays.
//  4. The stabilizer's behavior under partition is measured, not
//     assumed: a partition produces genuine split-brain (both sides
//     internally stable, two roots, globally illegitimate), and after
//     the heal the overlay re-legalizes with zero false negatives.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/flooding.h"
#include "drtree/checker.h"
#include "drtree/overlay.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "net/config.h"
#include "net/model.h"
#include "sim/simulator.h"

namespace drt {
namespace {

using engine::drtree_backend;
using engine::metrics_recorder;
using engine::overlay_backend_config;
using engine::scenario_runner;

// ---------------------------------------------------------- validation

using NetConfigDeathTest = ::testing::Test;

TEST(NetConfigDeathTest, RejectsInvalidConfigs) {
  net::uniform_model_config bad_delay;
  bad_delay.min_delay = 2.0;
  bad_delay.max_delay = 1.0;
  EXPECT_DEATH(net::validate(net::model_config{bad_delay}), "");

  net::uniform_model_config bad_loss;
  bad_loss.loss = 1.5;
  EXPECT_DEATH(net::validate(net::model_config{bad_loss}), "");

  net::cluster_model_config bad_matrix;  // 2 clusters, 3-cell matrix
  bad_matrix.min_matrix = {0.1, 0.2, 0.3};
  bad_matrix.max_matrix = {1.0, 1.0, 1.0};
  EXPECT_DEATH(net::validate(net::model_config{bad_matrix}), "");

  net::cluster_model_config negative_cell;
  negative_cell.min_matrix = {-0.1, 0.2, 0.2, 0.1};
  negative_cell.max_matrix = {1.0, 1.0, 1.0, 1.0};
  EXPECT_DEATH(net::validate(net::model_config{negative_cell}), "");

  net::cluster_model_config inverted_cell;
  inverted_cell.min_matrix = {0.5, 0.2, 0.2, 0.5};
  inverted_cell.max_matrix = {0.1, 1.0, 1.0, 1.0};
  EXPECT_DEATH(net::validate(net::model_config{inverted_cell}), "");

  net::dynamic_model_config bad_dup;
  bad_dup.duplicate = 2.0;
  EXPECT_DEATH(net::validate(net::model_config{bad_dup}), "");

  // The simulator validates at construction (the satellite contract:
  // fail loudly instead of silently misbehaving).
  sim::simulator_config scfg;
  scfg.model = net::model_config{bad_delay};
  EXPECT_DEATH(sim::simulator{scfg}, "");
}

TEST(NetConfig, NamesAreStable) {
  EXPECT_STREQ(net::model_name(net::uniform_model_config{}), "uniform");
  EXPECT_STREQ(net::model_name(net::cluster_model_config{}), "cluster");
  EXPECT_STREQ(net::model_name(net::dynamic_model_config{}), "dynamic");
}

// ------------------------------------------------- uniform no-op golden

metrics_recorder run_drtree(const engine::scenario& sc,
                            overlay_backend_config bc) {
  drtree_backend be(engine::configured_for(sc, bc));
  scenario_runner runner(be);
  return runner.run(sc);
}

// Golden digests captured on the pre-subsystem code (hard-coded
// delay/loss fields), pinning "default uniform_model is a strict no-op".
constexpr std::uint64_t kGoldenRollingChurn = 2727552842464279799ull;
constexpr std::uint64_t kGoldenFlashCrowd = 2725230533165199554ull;
constexpr std::uint64_t kGoldenMassacreLossy = 12904214689126478679ull;

TEST(UniformModel, MatchesPrePrGoldenDigests) {
  overlay_backend_config bc;
  bc.net.seed = 41;
  EXPECT_EQ(run_drtree(engine::canned::rolling_churn(48, 3, 12, 7), bc)
                .digest(),
            kGoldenRollingChurn);
  EXPECT_EQ(run_drtree(engine::canned::flash_crowd(24, 96, 7), bc).digest(),
            kGoldenFlashCrowd);

  overlay_backend_config lossy = bc;
  lossy.net.message_loss = 0.05;
  EXPECT_EQ(
      run_drtree(engine::canned::massacre_then_heal(60, 1.0 / 3, 0.5, 7),
                 lossy)
          .digest(),
      kGoldenMassacreLossy);
}

TEST(UniformModel, ExplicitConfigEqualsLegacyShorthand) {
  // The same transport expressed via simulator_config's legacy fields
  // and via an explicit uniform_model_config must be bit-identical.
  overlay_backend_config shorthand;
  shorthand.net.seed = 41;
  shorthand.net.message_loss = 0.05;

  net::uniform_model_config u;
  u.loss = 0.05;
  overlay_backend_config explicit_model;
  explicit_model.net.seed = 41;
  explicit_model.net.model = net::model_config{u};

  const auto sc = engine::canned::massacre_then_heal(60, 1.0 / 3, 0.5, 7);
  EXPECT_EQ(run_drtree(sc, shorthand).digest(), kGoldenMassacreLossy);
  EXPECT_EQ(run_drtree(sc, explicit_model).digest(), kGoldenMassacreLossy);
}

// --------------------------------------------- per-model determinism

engine::scenario churny(std::uint64_t seed,
                        const net::model_config& model) {
  return engine::scenario::make("net_churn")
      .seed(seed)
      .net(model)
      .populate(32)
      .converge()
      .churn_wave(12, 0.5, 8)
      .converge()
      .publish_sweep(40, workload::event_family::matching)
      .build();
}

TEST(NetDeterminism, SameScenarioSeedAndModelAreBitIdentical) {
  net::cluster_model_config cl;
  cl.clusters = 3;
  cl.jitter = 0.2;
  cl.loss = 0.01;

  net::dynamic_model_config dyn;
  dyn.base = cl;
  dyn.extra_loss = 0.01;
  dyn.duplicate = 0.05;
  dyn.reorder = 0.05;

  const net::model_config models[] = {net::uniform_model_config{}, cl, dyn};
  for (const auto& m : models) {
    overlay_backend_config bc;
    bc.net.seed = 77;
    const auto sc = churny(9, m);
    const auto a = run_drtree(sc, bc);
    const auto b = run_drtree(sc, bc);
    EXPECT_EQ(a.digest(), b.digest()) << net::model_name(m);
    // And the model shapes the run: a different seed diverges.
    EXPECT_NE(run_drtree(churny(10, m), bc).digest(), a.digest())
        << net::model_name(m);
  }
}

TEST(NetDeterminism, DifferentModelsDiverge) {
  overlay_backend_config bc;
  bc.net.seed = 77;
  net::cluster_model_config cl;  // defaults: 2 clusters, slow inter
  EXPECT_NE(run_drtree(churny(9, net::uniform_model_config{}), bc).digest(),
            run_drtree(churny(9, net::model_config{cl}), bc).digest());
}

// ----------------------------------------------------- cluster shaping

struct sink_process : sim::process {
  void on_message(sim::process_id, std::uint64_t,
                  const sim::envelope&) override {}
};

TEST(ClusterModel, IntraClusterBeatsInterClusterLatency) {
  // Default shape: 2 clusters, intra [0.2, 0.6], inter [2, 6] — the
  // ranges are disjoint, so every same-cluster delivery must beat every
  // cross-cluster one.  Round-robin assignment puts even ids in cluster
  // 0 and odd ids in cluster 1.
  net::cluster_model_config cl;
  sim::simulator_config scfg;
  scfg.model = net::model_config{cl};

  double intra_worst = 0.0;
  double inter_best = 1e9;
  for (int i = 0; i < 64; ++i) {
    scfg.seed = 5 + static_cast<std::uint64_t>(i);
    sim::simulator s(scfg);
    for (int p = 0; p < 4; ++p) {
      s.add_process(std::make_unique<sink_process>());
    }
    double at = -1.0;
    s.set_trace([&at](const sim::simulator::trace_event& e) { at = e.at; });
    if (i % 2 == 0) {
      s.send(0, 2, 1);  // intra: both cluster 0
    } else {
      s.send(0, 1, 1);  // inter: cluster 0 -> 1
    }
    s.run_steps(1);
    ASSERT_GE(at, 0.0);
    if (i % 2 == 0) {
      intra_worst = std::max(intra_worst, at);
    } else {
      inter_best = std::min(inter_best, at);
    }
  }
  EXPECT_LT(intra_worst, inter_best);
}

TEST(ClusterModel, PerLinkJitterIsDeterministicAndBounded) {
  net::cluster_model_config cl;
  cl.jitter = 0.25;
  sim::simulator_config scfg;
  scfg.seed = 19;
  scfg.model = net::model_config{cl};

  auto trace_of = [&] {
    sim::simulator s(scfg);
    for (int p = 0; p < 6; ++p) {
      s.add_process(std::make_unique<sink_process>());
    }
    std::vector<double> ats;
    s.set_trace([&ats](const sim::simulator::trace_event& e) {
      ats.push_back(e.at);
    });
    for (int i = 0; i < 30; ++i) {
      s.send(static_cast<sim::process_id>(i % 6),
             static_cast<sim::process_id>((i + 2) % 6), 1);
    }
    s.run_steps(64);
    return ats;
  };
  const auto a = trace_of();
  const auto b = trace_of();
  EXPECT_EQ(a, b);  // jitter is hash-derived, not an extra RNG stream
  // Jittered delays stay within the advertised bounds.
  for (const auto at : a) {
    EXPECT_GE(at, 0.2 * (1.0 - cl.jitter));
    EXPECT_LE(at, 6.0 * (1.0 + cl.jitter));
  }
}

TEST(ClusterModel, CountsIntraAndInterSends) {
  net::cluster_model_config cl;
  sim::simulator_config scfg;
  scfg.model = net::model_config{cl};
  sim::simulator s(scfg);
  for (int p = 0; p < 4; ++p) s.add_process(std::make_unique<sink_process>());
  s.send(0, 2, 1);  // intra
  s.send(0, 2, 1);  // intra
  s.send(1, 2, 1);  // inter
  EXPECT_EQ(s.net_model().counters().intra_cluster, 2u);
  EXPECT_EQ(s.net_model().counters().inter_cluster, 1u);
}

// ------------------------------------------------------ dynamic faults

sim::simulator_config dynamic_sim_config(std::uint64_t seed,
                                         net::dynamic_model_config dyn = {}) {
  sim::simulator_config scfg;
  scfg.seed = seed;
  scfg.model = net::model_config{dyn};
  return scfg;
}

TEST(DynamicModel, PartitionCutsPurgesAndHeals) {
  sim::simulator s(dynamic_sim_config(3));
  for (int p = 0; p < 4; ++p) s.add_process(std::make_unique<sink_process>());

  // In-flight cross-cut traffic is purged when the partition lands.
  s.send(0, 2, 1);
  ASSERT_EQ(s.pending_work(), 1u);
  ASSERT_TRUE(s.partition({2, 3}));
  EXPECT_EQ(s.pending_work(), 0u);
  EXPECT_EQ(s.metrics().messages_partitioned, 1u);

  // New cross-cut sends drop at the source; same-side sends deliver.
  EXPECT_FALSE(s.reachable(0, 2));
  EXPECT_TRUE(s.reachable(0, 1));
  s.send(0, 2, 1);
  s.send(0, 1, 1);
  s.run_steps(10);
  EXPECT_EQ(s.metrics().messages_partitioned, 2u);
  EXPECT_EQ(s.metrics().messages_delivered, 1u);
  EXPECT_EQ(s.net_model().counters().partitioned, 1u);  // send-path cut

  ASSERT_TRUE(s.heal_partition());
  EXPECT_TRUE(s.reachable(0, 2));
  s.send(0, 2, 1);
  s.run_steps(10);
  EXPECT_EQ(s.metrics().messages_delivered, 2u);
}

TEST(DynamicModel, StaticModelRefusesRuntimeFaults) {
  sim::simulator s{sim::simulator_config{}};
  s.add_process(std::make_unique<sink_process>());
  EXPECT_EQ(s.dynamic_net(), nullptr);
  EXPECT_FALSE(s.partition({0}));
  EXPECT_FALSE(s.heal_partition());
  EXPECT_FALSE(s.degrade_links(2.0, 0.0, 0.0));
  EXPECT_TRUE(s.reachable(0, 0));
}

TEST(DynamicModel, DuplicationDeliversTwiceWithIntactPayload) {
  net::dynamic_model_config dyn;
  dyn.duplicate = 1.0;  // every message grows a copy
  sim::simulator s(dynamic_sim_config(3, dyn));
  struct counting : sim::process {
    int hits = 0;
    std::vector<int> values;
    void on_message(sim::process_id, std::uint64_t,
                    const sim::envelope& msg) override {
      ++hits;
      if (const auto* v = msg.visit<int>()) values.push_back(*v);
    }
  };
  s.add_process(std::make_unique<counting>());
  const auto b = s.add_process(std::make_unique<counting>());
  s.send<int>(0, b, 1, 42);
  s.run_steps(10);
  auto& sink = static_cast<counting&>(s.get(b));
  EXPECT_EQ(sink.hits, 2);
  ASSERT_EQ(sink.values.size(), 2u);
  EXPECT_EQ(sink.values[0], 42);
  EXPECT_EQ(sink.values[1], 42);  // the shared payload block survived
  EXPECT_EQ(s.metrics().messages_duplicated, 1u);
  EXPECT_EQ(s.metrics().messages_sent, 1u);
  EXPECT_EQ(s.metrics().messages_delivered, 2u);
}

// ------------------------------------------------ duplicate suppression

// A timeline on which the per-peer duplicate guard actually fires: over a
// third of all messages grow a late copy, the corruptor scrambles the
// tree, and events are published (scalar and in batches) while the
// stabilizer is still repairing it.  With `seen_ring` 3 a batch of 16
// overruns the guard, so the late copies of its first events get through
// again — which pins the FIFO eviction order, not just the hit path.
engine::scenario duplicate_heavy() {
  net::dynamic_model_config dyn;
  dyn.duplicate = 0.35;
  dyn.reorder = 0.1;
  return engine::scenario::make("duplicate_heavy")
      .seed(5)
      .net(dyn)
      .populate(40)
      .converge()
      .corruption_burst(0.15)
      .publish_sweep(30)
      .step_rounds(2)
      .publish_batch(48, 16)
      .converge()
      .publish_sweep(20)
      .build();
}

struct dedup_run {
  std::uint64_t digest = 0;
  std::uint64_t duplicated = 0;
};

dedup_run run_duplicate_heavy(std::size_t seen_ring) {
  overlay_backend_config bc;
  bc.net.seed = 19;
  bc.dr.seen_ring = seen_ring;
  const auto sc = duplicate_heavy();
  drtree_backend be(engine::configured_for(sc, bc));
  scenario_runner runner(be);
  const auto rec = runner.run(sc);
  return {rec.digest(), be.overlay().sim().metrics().messages_duplicated};
}

// Captured on the original guard, a linear scan over a zero-filled ring
// of `seen_ring` ids; any replacement must suppress exactly the same
// copies.
constexpr std::uint64_t kGoldenDuplicateHeavy = 3762098125497991398ull;
constexpr std::uint64_t kGoldenDuplicateHeavyRing3 = 10644789096093426521ull;

TEST(DynamicModel, DuplicateSuppressionMatchesGoldenDigests) {
  const auto wide = run_duplicate_heavy(2048);
  EXPECT_GT(wide.duplicated, 0u);  // the guard had copies to suppress
  EXPECT_EQ(wide.digest, kGoldenDuplicateHeavy);

  const auto narrow = run_duplicate_heavy(3);
  EXPECT_GT(narrow.duplicated, 0u);
  EXPECT_EQ(narrow.digest, kGoldenDuplicateHeavyRing3);
  // Eviction is observable on this timeline: a 3-entry guard lets
  // copies through that a 2048-entry one suppresses.
  EXPECT_NE(narrow.digest, wide.digest);
}

TEST(DynamicModel, DegradationStretchesDelaysAndStacksLoss) {
  // Base delays in [0.5, 1.5]; a held 4x degradation must push every
  // delivery past the undegraded maximum.
  sim::simulator degraded(dynamic_sim_config(11));
  for (int p = 0; p < 2; ++p) {
    degraded.add_process(std::make_unique<sink_process>());
  }
  ASSERT_TRUE(degraded.degrade_links(4.0, 0.0, 0.0));  // instant, held
  double worst = 0.0;
  double best = 1e9;
  degraded.set_trace([&](const sim::simulator::trace_event& e) {
    best = std::min(best, e.at);
    worst = std::max(worst, e.at);
  });
  for (int i = 0; i < 16; ++i) degraded.send(0, 1, 1);
  degraded.run_steps(32);
  EXPECT_GT(best, 1.5);  // undegraded max delay
  EXPECT_LE(worst, 6.0);
  EXPECT_GT(degraded.net_model().counters().degraded, 0u);

  // Degradation-stacked loss: extra_loss = 1 drops everything.
  sim::simulator lossy(dynamic_sim_config(11));
  for (int p = 0; p < 2; ++p) {
    lossy.add_process(std::make_unique<sink_process>());
  }
  ASSERT_TRUE(lossy.degrade_links(1.0, 1.0, 0.0));
  for (int i = 0; i < 8; ++i) lossy.send(0, 1, 1);
  lossy.run_steps(32);
  EXPECT_EQ(lossy.metrics().messages_delivered, 0u);
  EXPECT_EQ(lossy.metrics().messages_dropped, 8u);
  EXPECT_TRUE(lossy.clear_degradation());
  lossy.send(0, 1, 1);
  lossy.run_steps(8);
  EXPECT_EQ(lossy.metrics().messages_delivered, 1u);
}

// --------------------------------- stabilizer under partition (measured)

TEST(PartitionHeal, SplitBrainFormsAndHealsWithZeroFalseNegatives) {
  // Direct overlay drive: converge, cut a third off, let both sides
  // stabilize, measure the split-brain, heal, measure recovery.
  overlay::dr_config dcfg;
  sim::simulator_config scfg;
  scfg.seed = 7;
  scfg.model = net::model_config{net::dynamic_model_config{}};
  overlay::dr_overlay o(dcfg, scfg);

  util::rng boxes(99);
  auto random_box = [&] {
    const double x1 = boxes.uniform_real(0, 1000);
    const double x2 = boxes.uniform_real(0, 1000);
    const double y1 = boxes.uniform_real(0, 1000);
    const double y2 = boxes.uniform_real(0, 1000);
    return geo::make_rect2(std::min(x1, x2), std::min(y1, y2),
                           std::max(x1, x2), std::max(y1, y2));
  };
  for (int i = 0; i < 48; ++i) o.add_peer_and_settle(random_box());
  for (int r = 0; r < 60 && !overlay::checker(o).check().legal(); ++r) {
    o.advance(dcfg.stabilize_period);
    o.settle();
  }
  ASSERT_TRUE(overlay::checker(o).check().legal());

  const auto live = o.live_peers();
  const std::vector<spatial::peer_id> minority(live.begin(),
                                               live.begin() + 16);
  ASSERT_TRUE(o.partition(minority));
  EXPECT_TRUE(o.partitioned());
  for (int r = 0; r < 15; ++r) {
    o.advance(dcfg.stabilize_period);
    o.settle();
  }
  // Split brain, measured: both sides elected a root, the global
  // configuration is illegitimate, and cross-cut events orphan the far
  // side's interested subscribers.
  EXPECT_GE(o.root_peers().size(), 2u);
  EXPECT_FALSE(overlay::checker(o).check().legal());
  std::size_t fn_during = 0;
  for (int i = 0; i < 10; ++i) {
    const auto r = o.publish_and_drain(
        minority[static_cast<std::size_t>(i) % minority.size()],
        {{100.0 * i, 50.0 * i}});
    fn_during += r.false_negatives;
  }
  EXPECT_GT(fn_during, 0u);

  // Heal: the two trees merge back (root probes) into one legal overlay.
  ASSERT_TRUE(o.heal_partition());
  EXPECT_FALSE(o.partitioned());
  int rounds = -1;
  for (int r = 0; r < 100; ++r) {
    if (overlay::checker(o).check().legal()) {
      rounds = r;
      break;
    }
    o.advance(dcfg.stabilize_period);
    o.settle();
  }
  ASSERT_GE(rounds, 0) << "overlay did not re-legalize after heal";
  EXPECT_EQ(o.root_peers().size(), 1u);

  // Zero false negatives after the heal — the paper's guarantee holds
  // again once the transport assumption does.
  std::size_t fn_after = 0;
  for (int i = 0; i < 10; ++i) {
    const auto r = o.publish_and_drain(live[static_cast<std::size_t>(i)],
                                       {{100.0 * i, 50.0 * i}});
    EXPECT_GT(r.delivered, 0u);
    fn_after += r.false_negatives;
  }
  EXPECT_EQ(fn_after, 0u);
}

TEST(PartitionHeal, CannedScenarioRecoversOnDrtreeAndBroker) {
  const auto sc = engine::canned::split_brain_heal(48, 1.0 / 3, 6, 7);
  overlay_backend_config bc;
  bc.net.seed = 53;

  auto check = [&](engine::backend& be) -> std::uint64_t {
    scenario_runner runner(be);
    const auto rec = runner.run(sc);
    // The step_rounds row inside the cut must record illegality
    // (split brain) and the mid-partition sweep must show FNs.
    const auto* cut = rec.last("step_rounds");
    EXPECT_NE(cut, nullptr);
    if (cut != nullptr) {
      EXPECT_EQ(cut->legal, 0) << be.name();
    }
    const engine::phase_metrics* during = nullptr;
    bool inside = false;
    for (const auto& m : rec.phases()) {
      if (m.phase == "partition") inside = true;
      if (m.phase == "heal") break;
      if (inside && m.phase == "publish_sweep") during = &m;
    }
    EXPECT_NE(during, nullptr);
    if (during != nullptr) {
      EXPECT_GT(during->false_negatives, 0u) << be.name();
    }
    // After the heal: legal again, zero false negatives.
    const auto* heal = rec.last("converge_until_legal");
    EXPECT_EQ(heal->legal, 1) << be.name();
    const auto* after = rec.last("publish_sweep");
    EXPECT_EQ(after->false_negatives, 0u) << be.name();
    return rec.digest();
  };

  drtree_backend dr(engine::configured_for(sc, bc));
  engine::broker_backend br(engine::configured_for(sc, bc));
  // The two overlay adapters drive the identical protocol stack; a
  // partition timeline is churn-free, so their digests must agree.
  EXPECT_EQ(check(dr), check(br));
}

TEST(PartitionHeal, PhasesSkipOnBackendsWithoutTheCapability) {
  const auto sc = engine::canned::split_brain_heal(16, 0.5, 2, 7);

  // Static uniform model: the overlay adapter has no dynamic layer, so
  // partition/heal record skipped and the run completes legally.
  drtree_backend be{overlay_backend_config{}};
  EXPECT_FALSE(be.can(engine::cap_partition));
  scenario_runner runner(be);
  const auto rec = runner.run(sc);
  bool saw_skipped_partition = false;
  for (const auto& m : rec.phases()) {
    if (m.phase == "partition") {
      EXPECT_TRUE(m.skipped);
      saw_skipped_partition = true;
    }
    if (m.phase == "heal") {
      EXPECT_TRUE(m.skipped);
    }
  }
  EXPECT_TRUE(saw_skipped_partition);
  const auto* after = rec.last("publish_sweep");
  EXPECT_EQ(after->false_negatives, 0u);  // never partitioned, never torn

  // A structural baseline skips too (no capability, no crash).
  engine::baseline_backend flood(
      std::make_unique<baselines::flooding>(4, 113));
  EXPECT_FALSE(flood.can(engine::cap_partition));
  scenario_runner flood_runner(flood);
  const auto flood_rec = flood_runner.run(sc);
  for (const auto& m : flood_rec.phases()) {
    if (m.phase == "partition" || m.phase == "heal") {
      EXPECT_TRUE(m.skipped);
    }
  }
}

}  // namespace
}  // namespace drt
