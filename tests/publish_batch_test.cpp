// Batched publication (DESIGN.md §9): delivery equivalence between
// multi-event envelopes and one-event publishes, the envelope's wire
// kinds, subtree-summary soundness (bitmap admits over-approximate the
// filter set below), and the batch/summary cost wins the bench gates on.
//
// The equivalence harness runs *twin* overlays: identical config, seed,
// and operation sequence produce bit-identical trees, so the scalar twin
// and the batched twin disagree only if the batch protocol itself does.
// Stabilization timers are pushed out past the horizon during compares —
// a scalar run drains n times while a batched run drains once, so any
// timer firing mid-compare would let the topologies diverge for reasons
// that have nothing to do with batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/harness.h"
#include "baselines/flooding.h"
#include "drtree/checker.h"
#include "drtree/messages.h"
#include "drtree/overlay.h"
#include "drtree/summary.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "pubsub/broker.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace drt::overlay {
namespace {

using spatial::peer_id;
using spatial::pt;

dr_config frozen_dr(summary_mode mode, std::size_t grid = 8) {
  dr_config dr;
  dr.min_children = 2;
  dr.max_children = 6;
  dr.stabilize_period = 1e9;  // freeze topology during the compare
  dr.summary = mode;
  dr.summary_grid = grid;
  return dr;
}

std::vector<spatial::box> gen_filters(std::uint64_t seed, std::size_t n) {
  util::rng rng(seed);
  workload::subscription_params params;
  return workload::make_subscriptions(workload::subscription_family::mixed, n,
                                      rng, params);
}

std::vector<pt> gen_events(std::uint64_t seed, std::size_t n,
                           const std::vector<spatial::box>& filters) {
  util::rng rng(seed);
  workload::subscription_params params;
  std::vector<pt> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Alternate matching and uniform draws so both delivery and pruning
    // paths are exercised (matching needs filters to draw from).
    const auto family = (filters.empty() || i % 2 != 0)
                            ? workload::event_family::uniform
                            : workload::event_family::matching;
    out.push_back(
        workload::make_event_point(family, rng, params.workspace, filters));
  }
  return out;
}

struct twin_overlays {
  dr_overlay scalar;
  dr_overlay batched;

  twin_overlays(const dr_config& dr, std::uint64_t net_seed)
      : scalar(dr, seeded(net_seed)), batched(dr, seeded(net_seed)) {}

  static sim::simulator_config seeded(std::uint64_t seed) {
    sim::simulator_config net;
    net.seed = seed;
    return net;
  }

  peer_id populate(const std::vector<spatial::box>& filters) {
    peer_id last = spatial::kNoPeer;
    for (const auto& f : filters) {
      last = scalar.add_peer_and_settle(f);
      const auto other = batched.add_peer_and_settle(f);
      EXPECT_EQ(last, other);
    }
    return last;
  }
};

/// Publish `values` scalar on one twin and batched on the other; the
/// per-event receiver sets and accuracy accounting must coincide.
void expect_equivalent(twin_overlays& tw, peer_id publisher,
                       const std::vector<pt>& values) {
  std::vector<publish_result> scalar;
  scalar.reserve(values.size());
  for (const auto& v : values) {
    scalar.push_back(tw.scalar.publish_and_drain(publisher, v));
  }
  const auto batched =
      tw.batched.multi_publish_and_drain(publisher, values.data(),
                                         values.size());
  ASSERT_EQ(batched.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(scalar[i].receivers, batched[i].receivers);
    EXPECT_EQ(scalar[i].interested, batched[i].interested);
    EXPECT_EQ(scalar[i].delivered, batched[i].delivered);
    EXPECT_EQ(scalar[i].false_positives, batched[i].false_positives);
    EXPECT_EQ(scalar[i].false_negatives, batched[i].false_negatives);
  }
}

// ------------------------------------------------- delivery equivalence

TEST(PublishBatch, DeliveryEquivalenceAcrossConfigs) {
  const summary_mode modes[] = {summary_mode::mbr, summary_mode::both};
  const std::size_t populations[] = {24, 64};
  const std::size_t batches[] = {4, 16, 64};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto n : populations) {
      for (const auto mode : modes) {
        for (const auto batch : batches) {
          SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" +
                       std::to_string(n) + " mode=" + to_string(mode) +
                       " batch=" + std::to_string(batch));
          twin_overlays tw(frozen_dr(mode), 100 + seed);
          const auto filters = gen_filters(seed * 31 + 7, n);
          const auto publisher = tw.populate(filters);
          const auto values =
              gen_events(seed * 53 + 11, batch, filters);
          expect_equivalent(tw, publisher, values);
        }
      }
    }
  }
}

TEST(PublishBatch, EquivalenceMidChurnWithCrashes) {
  // Crash a slice of the population and compare WITHOUT re-converging:
  // the batch path must match the scalar path on a broken tree too
  // (dead children skipped, fragments still reached identically).
  for (const auto mode : {summary_mode::mbr, summary_mode::both}) {
    SCOPED_TRACE(to_string(mode));
    twin_overlays tw(frozen_dr(mode), 77);
    const auto filters = gen_filters(1234, 48);
    const auto publisher = tw.populate(filters);
    const auto live = tw.scalar.live_peers();
    for (std::size_t i = 0; i < live.size(); i += 5) {
      if (live[i] == publisher) continue;
      tw.scalar.crash(live[i]);
      tw.batched.crash(live[i]);
    }
    tw.scalar.settle();
    tw.batched.settle();
    const auto values = gen_events(99, 32, filters);
    expect_equivalent(tw, publisher, values);
  }
}

TEST(PublishBatch, ChunksBeyondEnvelopeCapacity) {
  // More events than one dr_batch_msg holds: multi_publish_and_drain must
  // chunk transparently and still deliver every event exactly once.
  twin_overlays tw(frozen_dr(summary_mode::both), 5);
  const auto filters = gen_filters(42, 32);
  const auto publisher = tw.populate(filters);
  const auto values =
      gen_events(43, dr_batch_msg::kMaxEvents * 2 + 17, filters);
  expect_equivalent(tw, publisher, values);
}

TEST(PublishBatch, BatchedCostsFewerMessages) {
  twin_overlays tw(frozen_dr(summary_mode::mbr), 9);
  const auto filters = gen_filters(7, 64);
  const auto publisher = tw.populate(filters);
  const auto values = gen_events(8, 32, filters);

  std::uint64_t scalar_messages = 0;
  for (const auto& v : values) {
    scalar_messages += tw.scalar.publish_and_drain(publisher, v).messages;
  }
  const auto batched = tw.batched.multi_publish_and_drain(
      publisher, values.data(), values.size());
  std::uint64_t batched_messages = 0;
  for (const auto& r : batched) batched_messages += r.messages;

  EXPECT_LT(batched_messages, scalar_messages)
      << "a shared envelope must beat per-event routing";
}

TEST(PublishBatch, EnvelopesTravelAsEventKindsOnly) {
  // Batched and single publishes ride one envelope whose wire kinds are
  // event_up / event_down at every event count — the kind values the
  // golden delivery digests hash.
  dr_overlay ov(frozen_dr(summary_mode::mbr), twin_overlays::seeded(61));
  const auto filters = gen_filters(62, 48);
  for (const auto& f : filters) ov.add_peer_and_settle(f);
  peer_id publisher = spatial::kNoPeer;
  ov.for_each_live([&](peer_id p) {
    if (ov.peer(p).is_root()) return true;
    publisher = p;  // a non-root publisher sends event_up as well
    return false;
  });
  ASSERT_NE(publisher, spatial::kNoPeer);

  std::uint64_t up = 0, down = 0, other = 0;
  ov.sim().set_trace([&](const sim::simulator::trace_event& e) {
    if (e.type == static_cast<std::uint64_t>(msg_kind::event_up)) {
      ++up;
    } else if (e.type == static_cast<std::uint64_t>(msg_kind::event_down)) {
      ++down;
    } else {
      ++other;
    }
  });
  const auto values = gen_events(63, 16, filters);
  const auto batched =
      ov.multi_publish_and_drain(publisher, values.data(), values.size());
  const auto single = ov.publish_and_drain(publisher, values.front());
  ov.sim().set_trace(nullptr);

  EXPECT_GT(up, 0u);
  EXPECT_GT(down, 0u);
  EXPECT_EQ(other, 0u);
  EXPECT_EQ(up + down, batched.front().messages + single.messages);
}

// ------------------------------------------------------ backend parity

TEST(PublishBatch, BackendBatchMatchesScalarAggregate) {
  auto make_cfg = [] {
    engine::overlay_backend_config cfg;
    cfg.dr = frozen_dr(summary_mode::both);
    cfg.net.seed = 21;
    return cfg;
  };
  engine::drtree_backend scalar_be(make_cfg());
  engine::drtree_backend batch_be(make_cfg());
  engine::scenario_runner r1(scalar_be), r2(batch_be);
  const auto ids1 = r1.populate(40);
  const auto ids2 = r2.populate(40);
  ASSERT_EQ(ids1, ids2);

  const auto values = gen_events(3, 16, {});
  engine::delivery_report scalar_total;
  for (const auto& v : values) {
    const auto r = scalar_be.publish(ids1[4], v);
    scalar_total.interested += r.interested;
    scalar_total.delivered += r.delivered;
    scalar_total.false_positives += r.false_positives;
    scalar_total.false_negatives += r.false_negatives;
  }
  const auto batch_total =
      batch_be.publish_batch(ids2[4], values.data(), values.size());
  EXPECT_EQ(batch_total.interested, scalar_total.interested);
  EXPECT_EQ(batch_total.delivered, scalar_total.delivered);
  EXPECT_EQ(batch_total.false_positives, scalar_total.false_positives);
  EXPECT_EQ(batch_total.false_negatives, scalar_total.false_negatives);
}

TEST(PublishBatch, ShardedBackendDeliversBatchesExactly) {
  engine::overlay_backend_config cfg;
  cfg.dr = frozen_dr(summary_mode::mbr);
  cfg.net.seed = 33;
  engine::drtree_backend be(cfg, 2);
  engine::scenario_runner runner(be);
  const auto ids = runner.populate(30);
  ASSERT_EQ(be.population(), 30u);

  const auto values = gen_events(12, 24, {});
  const auto rep = be.publish_batch(ids[3], values.data(), values.size());
  EXPECT_EQ(rep.false_negatives, 0u);
  EXPECT_GE(rep.delivered, rep.interested - rep.false_negatives);
  EXPECT_GT(rep.messages, 0u);
}

TEST(PublishBatch, BrokerBatchMatchesScalarOutcomes) {
  auto make_cfg = [] {
    pubsub::broker_config bc;
    bc.dr = frozen_dr(summary_mode::both);
    bc.net.seed = 55;
    return bc;
  };
  pubsub::broker scalar_br(make_cfg());
  pubsub::broker batch_br(make_cfg());
  const auto c1 = scalar_br.add_client();
  const auto c2 = batch_br.add_client();
  const auto filters = gen_filters(66, 24);
  for (const auto& f : filters) {
    scalar_br.subscribe(c1, f);
    batch_br.subscribe(c2, f);
  }
  const auto values = gen_events(67, 12, filters);
  const auto outs =
      batch_br.publish_batch(c2, values.data(), values.size());
  ASSERT_EQ(outs.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const auto s = scalar_br.publish(c1, values[i]);
    EXPECT_EQ(outs[i].notified, s.notified);
    EXPECT_EQ(outs[i].matching_clients, s.matching_clients);
    EXPECT_EQ(outs[i].client_false_positives, s.client_false_positives);
    EXPECT_EQ(outs[i].client_false_negatives, s.client_false_negatives);
  }
}

TEST(PublishBatch, ScenarioPhaseRunsOnBatchAndFallbackBackends) {
  const auto sc = engine::scenario::make("batch_smoke")
                      .seed(5)
                      .populate(24)
                      .converge()
                      .publish_batch(32, 8)
                      .build();
  // Native batch path.
  engine::overlay_backend_config cfg;
  cfg.net.seed = 3;
  engine::drtree_backend drbe(cfg);
  engine::scenario_runner r1(drbe);
  const auto rec = r1.run(sc);
  const auto* row = rec.last("publish_batch");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->events, 32u);
  EXPECT_EQ(row->false_negatives, 0u);
  // Fallback path (baseline backend has no native batches, so the base
  // class splits the batch into per-event publishes).
  engine::baseline_backend flood(
      std::make_unique<baselines::flooding>(4, 113));
  engine::scenario_runner r2(flood);
  const auto rec2 = r2.run(sc);
  const auto* row2 = rec2.last("publish_batch");
  ASSERT_NE(row2, nullptr);
  EXPECT_EQ(row2->events, 32u);
}

// --------------------------------------------- subtree-summary lattice

TEST(SubtreeSummary, MarkTestAndCoversAgree) {
  subtree_summary s;
  s.reset_frame(geo::make_rect2(0, 0, 100, 100), 8);
  ASSERT_TRUE(s.valid());
  EXPECT_FALSE(s.test({10.0, 10.0}));
  s.mark_box(geo::make_rect2(0, 0, 25, 25));
  EXPECT_TRUE(s.test({10.0, 10.0}));
  EXPECT_FALSE(s.test({90.0, 90.0}));
  EXPECT_TRUE(s.covers(geo::make_rect2(5, 5, 20, 20)));
  EXPECT_FALSE(s.covers(geo::make_rect2(5, 5, 60, 60)));
  // Regions outside the frame are vacuously covered (MBR fallback).
  EXPECT_TRUE(s.covers(geo::make_rect2(200, 200, 300, 300)));
}

TEST(SubtreeSummary, UnboundedOrEmptyFrameStaysAbsent) {
  subtree_summary s;
  s.reset_frame(spatial::box::empty(), 8);
  EXPECT_FALSE(s.valid());
  s.reset_frame(spatial::box::universe(), 8);
  EXPECT_FALSE(s.valid());
  // Absent summaries admit via the MBR path.
  const auto mbr = geo::make_rect2(0, 0, 10, 10);
  EXPECT_TRUE(summary_admits(summary_mode::both, s, mbr, {5.0, 5.0}));
  EXPECT_FALSE(summary_admits(summary_mode::both, s, mbr, {50.0, 5.0}));
}

TEST(SubtreeSummary, MergeCoversChildBeyondItsFrame) {
  // A child whose MBR outgrew its frame occupies the overhang via its
  // MBR, not its bits; the parent merge must rasterize those strips.
  subtree_summary child;
  child.reset_frame(geo::make_rect2(0, 0, 50, 50), 4);
  child.mark_box(geo::make_rect2(0, 0, 10, 10));
  const auto child_mbr = geo::make_rect2(0, 0, 80, 50);  // grew right

  subtree_summary parent;
  parent.reset_frame(geo::make_rect2(0, 0, 100, 100), 8);
  parent.merge(child, child_mbr);
  EXPECT_TRUE(parent.covers(geo::make_rect2(0, 0, 10, 10)));
  // The overhang (x in 50..80) must be covered even though the child
  // has no bits there.
  EXPECT_TRUE(parent.covers(geo::make_rect2(55, 5, 75, 45)));
}

TEST(SubtreeSummary, AdmitNeverPrunesInsideFilters) {
  // Grid admit must be an over-approximation: every point inside a live
  // filter below the root must be admitted at the root instance.
  analysis::harness_config hc;
  hc.dr = frozen_dr(summary_mode::both);
  hc.dr.stabilize_period = 10.0;
  hc.net.seed = 19;
  analysis::testbed tb(hc);
  tb.populate(40);
  ASSERT_GE(tb.converge(200), 0);
  const auto root = tb.overlay().current_root();
  const auto& rp = tb.overlay().peer(root);
  const auto& top = rp.inst(rp.top());
  util::rng rng(4);
  for (const auto p : tb.overlay().live_peers()) {
    const auto& f = tb.overlay().peer(p).filter();
    for (int i = 0; i < 8; ++i) {
      pt v;
      v[0] = rng.uniform_real(f.lo[0], f.hi[0]);
      v[1] = rng.uniform_real(f.lo[1], f.hi[1]);
      if (!top.mbr.contains(v)) continue;
      EXPECT_TRUE(summary_admits(summary_mode::both, top.summary, top.mbr, v))
          << "root summary pruned a subscribed point of peer " << p;
    }
  }
}

// ------------------------------------------------ checker summary rule

TEST(SummarySoundness, CheckerRuleQuietOnConvergedTrees) {
  analysis::harness_config hc;
  hc.dr = frozen_dr(summary_mode::both);
  hc.dr.stabilize_period = 10.0;
  hc.net.seed = 23;
  analysis::testbed tb(hc);
  tb.populate(48);
  ASSERT_GE(tb.converge(200), 0);
  const auto r = tb.report();
  EXPECT_TRUE(r.legal()) << r.violations.front();
  EXPECT_EQ(r.summary_violations, 0u);
}

TEST(SummarySoundness, CheckerRuleHoldsUnderChurnAndCrashSoak) {
  analysis::harness_config hc;
  hc.dr = frozen_dr(summary_mode::both);
  hc.dr.stabilize_period = 10.0;
  hc.net.seed = 29;
  analysis::testbed tb(hc);
  tb.populate(32);
  ASSERT_GE(tb.converge(200), 0);

  util::rng rng(31);
  for (int wave = 0; wave < 6; ++wave) {
    SCOPED_TRACE("wave " + std::to_string(wave));
    // Joins, controlled leaves, and crashes interleaved.
    tb.populate(4);
    auto live = tb.overlay().live_peers();
    for (int k = 0; k < 2 && live.size() > 8; ++k) {
      const auto victim = live[rng.index(live.size())];
      if (wave % 2 == 0) {
        tb.overlay().controlled_leave(victim);
      } else {
        tb.overlay().crash(victim);
      }
      tb.overlay().settle();
      live = tb.overlay().live_peers();
    }
    ASSERT_GE(tb.converge(300), 0);
    const auto r = tb.report();
    EXPECT_TRUE(r.legal()) << r.violations.front();
    EXPECT_EQ(r.summary_violations, 0u);
    // Accuracy spot check: summaries must not introduce false negatives.
    const auto acc = tb.publish_sweep(20, workload::event_family::matching);
    EXPECT_EQ(acc.false_negatives, 0u);
  }
}

TEST(SummarySoundness, CheckerRuleFlagsACorruptedBitmap) {
  analysis::harness_config hc;
  hc.dr = frozen_dr(summary_mode::both);
  hc.dr.stabilize_period = 10.0;
  hc.net.seed = 37;
  analysis::testbed tb(hc);
  tb.populate(24);
  ASSERT_GE(tb.converge(200), 0);
  ASSERT_EQ(tb.report().summary_violations, 0u);

  // Clear the root's occupancy bits: the summary now under-approximates
  // and the rule must fire (this is exactly the bug class it exists for).
  const auto root = tb.overlay().current_root();
  auto& rp = tb.overlay().peer(root);
  auto& top = rp.inst(rp.top());
  ASSERT_TRUE(top.summary.valid());
  top.summary.bits = 0;
  const auto r = tb.report();
  EXPECT_GT(r.summary_violations, 0u);
  EXPECT_FALSE(r.legal());
}

// ------------------------------------------------ summary pruning wins

TEST(SummaryPruning, GridReducesMessagesAtUnchangedAccuracy) {
  // Clustered filters leave most of the root MBR dead space — the setup
  // the occupancy grid exists for.  Same seed, same filters, same events;
  // only the summary mode differs.
  auto run_mode = [](summary_mode mode) {
    analysis::harness_config hc;
    hc.dr = frozen_dr(mode);
    hc.dr.stabilize_period = 10.0;
    hc.net.seed = 41;
    hc.family = workload::subscription_family::clustered;
    analysis::testbed tb(hc);
    tb.populate(64);
    EXPECT_GE(tb.converge(300), 0);
    return tb.publish_sweep(120, workload::event_family::uniform);
  };
  const auto mbr_only = run_mode(summary_mode::mbr);
  const auto grid = run_mode(summary_mode::both);
  EXPECT_EQ(mbr_only.false_negatives, 0u);
  EXPECT_EQ(grid.false_negatives, 0u);
  EXPECT_LE(grid.messages, mbr_only.messages)
      << "the occupancy grid must never route MORE than the plain MBR";
  EXPECT_LE(grid.false_positives, mbr_only.false_positives);
}

}  // namespace
}  // namespace drt::overlay
