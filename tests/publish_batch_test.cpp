// Batched publication (DESIGN.md §9): delivery equivalence between
// multi-event envelopes and one-event publishes, the envelope's wire
// kinds, the message saving batching buys, and a churn-and-crash soak
// that must stay legal and lose no event.
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
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/flooding.h"
#include "drtree/checker.h"
#include "drtree/messages.h"
#include "drtree/overlay.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "pubsub/broker.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace drt::overlay {
namespace {

using spatial::peer_id;
using spatial::pt;

dr_config frozen_dr() {
  dr_config dr;
  dr.min_children = 2;
  dr.max_children = 6;
  dr.stabilize_period = 1e9;  // freeze topology during the compare
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

/// Publish `n` events as one batch on a one-shard backend and keep each
/// event's overlay accounting.
std::vector<publish_result> publish_each(engine::drtree_backend& be,
                                         peer_id publisher, const pt* values,
                                         std::size_t n) {
  std::vector<publish_result> out;
  be.publish_batch(publisher, values, n,
                   [&](std::size_t, std::size_t, const publish_result& r,
                       const std::vector<peer_id>&) { out.push_back(r); });
  return out;
}

struct twin_overlays {
  engine::drtree_backend scalar_host;
  engine::drtree_backend batched_host;
  dr_overlay& scalar = scalar_host.overlay();
  dr_overlay& batched = batched_host.overlay();

  twin_overlays(const dr_config& dr, std::uint64_t net_seed)
      : scalar_host({dr, seeded(net_seed)}),
        batched_host({dr, seeded(net_seed)}) {}

  static sim::simulator_config seeded(std::uint64_t seed) {
    sim::simulator_config net;
    net.seed = seed;
    return net;
  }

  publish_result publish_scalar(peer_id publisher, const pt& v) {
    return std::move(publish_each(scalar_host, publisher, &v, 1).front());
  }
  std::vector<publish_result> publish_batched(peer_id publisher,
                                              const std::vector<pt>& values) {
    return publish_each(batched_host, publisher, values.data(),
                        values.size());
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
    scalar.push_back(tw.publish_scalar(publisher, v));
  }
  const auto batched = tw.publish_batched(publisher, values);
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
  const std::size_t populations[] = {24, 64};
  const std::size_t batches[] = {4, 16, 64};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto n : populations) {
      for (const auto batch : batches) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" +
                     std::to_string(n) + " batch=" + std::to_string(batch));
        twin_overlays tw(frozen_dr(), 100 + seed);
        const auto filters = gen_filters(seed * 31 + 7, n);
        const auto publisher = tw.populate(filters);
        const auto values = gen_events(seed * 53 + 11, batch, filters);
        expect_equivalent(tw, publisher, values);
      }
    }
  }
}

TEST(PublishBatch, EquivalenceMidChurnWithCrashes) {
  // Crash a slice of the population and compare WITHOUT re-converging:
  // the batch path must match the scalar path on a broken tree too
  // (dead children skipped, fragments still reached identically).
  twin_overlays tw(frozen_dr(), 77);
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

TEST(PublishBatch, ChunksBeyondEnvelopeCapacity) {
  // More events than one dr_batch_msg holds: the batch must chunk
  // transparently and still deliver every event exactly once.
  twin_overlays tw(frozen_dr(), 5);
  const auto filters = gen_filters(42, 32);
  const auto publisher = tw.populate(filters);
  const auto values =
      gen_events(43, dr_batch_msg::kMaxEvents * 2 + 17, filters);
  expect_equivalent(tw, publisher, values);
}

TEST(PublishBatch, BatchedCostsFewerMessages) {
  twin_overlays tw(frozen_dr(), 9);
  const auto filters = gen_filters(7, 64);
  const auto publisher = tw.populate(filters);
  const auto values = gen_events(8, 32, filters);

  std::uint64_t scalar_messages = 0;
  for (const auto& v : values) {
    scalar_messages += tw.publish_scalar(publisher, v).messages;
  }
  const auto batched = tw.publish_batched(publisher, values);
  std::uint64_t batched_messages = 0;
  for (const auto& r : batched) batched_messages += r.messages;

  EXPECT_LT(batched_messages, scalar_messages)
      << "a shared envelope must beat per-event routing";
}

TEST(PublishBatch, EnvelopesTravelAsEventKindsOnly) {
  // Batched and single publishes ride one envelope whose wire kinds are
  // event_up / event_down at every event count — the kind values the
  // golden delivery digests hash.
  engine::drtree_backend host({frozen_dr(), twin_overlays::seeded(61)});
  auto& ov = host.overlay();
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
      publish_each(host, publisher, values.data(), values.size());
  const auto single =
      std::move(publish_each(host, publisher, values.data(), 1).front());
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
    cfg.dr = frozen_dr();
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
  cfg.dr = frozen_dr();
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

TEST(PublishBatch, VisitorSeesEachEventOnEachShardInOrder) {
  // drtree_backend::publish_batch's per-event visitor: once per event
  // and shard, in event order, right after publish_finish, with the
  // shard's sorted live receivers and ground-truth matches; its per-event
  // counts add up to the returned report.  Batch sizes cover one event,
  // a part of one envelope and more than one envelope.
  static_assert(dr_batch_msg::kMaxEvents < 70);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    engine::overlay_backend_config cfg;
    cfg.dr = frozen_dr();
    cfg.net.seed = 71;
    engine::drtree_backend be(cfg, shards);
    const auto filters = gen_filters(72, 36);
    std::vector<engine::sub_id> ids;
    for (const auto& f : filters) ids.push_back(be.subscribe(f));
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{70}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " n=" + std::to_string(n));
      const auto values = gen_events(73 + n, n, filters);
      std::vector<std::size_t> next(shards, 0);  // next index per shard
      std::vector<std::uint64_t> first_id(shards, 0);
      std::vector<peer_id> want;
      engine::delivery_report sum;
      const auto rep = be.publish_batch(
          ids[n % ids.size()], values.data(), n,
          [&](std::size_t shard, std::size_t i, const publish_result& r,
              const std::vector<peer_id>& matches) {
            ASSERT_LT(shard, shards);
            EXPECT_EQ(i, next[shard]++);
            if (i == 0) first_id[shard] = r.event_id;
            EXPECT_EQ(r.event_id, first_id[shard] + i);
            EXPECT_TRUE(std::adjacent_find(r.receivers.begin(),
                                           r.receivers.end(),
                                           std::greater_equal<>()) ==
                        r.receivers.end())
                << "receivers must ascend strictly";
            for (const auto p : r.receivers) {
              EXPECT_TRUE(be.overlay(shard).alive(p)) << p;
            }
            EXPECT_EQ(r.delivered, r.receivers.size());
            be.overlay(shard).matching_live_peers(values[i], want);
            EXPECT_EQ(matches, want);
            EXPECT_EQ(r.interested, matches.size());
            sum.interested += r.interested;
            sum.delivered += r.delivered;
            sum.false_positives += r.false_positives;
            sum.false_negatives += r.false_negatives;
            sum.messages += r.messages;
            sum.max_hops = std::max(sum.max_hops, r.max_hops);
          });
      for (std::size_t s = 0; s < shards; ++s) EXPECT_EQ(next[s], n) << s;
      EXPECT_EQ(first_id, std::vector<std::uint64_t>(shards, first_id[0]));
      EXPECT_EQ(rep.interested, sum.interested);
      EXPECT_EQ(rep.delivered, sum.delivered);
      EXPECT_EQ(rep.false_positives, sum.false_positives);
      EXPECT_EQ(rep.false_negatives, sum.false_negatives);
      EXPECT_EQ(rep.messages, sum.messages + (shards - 1));
      EXPECT_EQ(rep.max_hops, sum.max_hops);
    }
  }
}

TEST(PublishBatch, BrokerBatchMatchesScalarOutcomes) {
  auto make_cfg = [] {
    engine::overlay_backend_config bc;
    bc.dr = frozen_dr();
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

// ------------------------------------------------ churn and crash soak

TEST(PublishBatch, ChurnAndCrashWavesStayLegalWithoutFalseNegatives) {
  engine::overlay_backend_config bc;
  bc.dr = frozen_dr();
  bc.dr.stabilize_period = 10.0;
  bc.net.seed = 29;
  engine::drtree_backend be(bc);
  engine::scenario_runner runner(be);
  runner.populate(32);
  ASSERT_GE(runner.converge(200), 0);

  util::rng rng(31);
  for (int wave = 0; wave < 6; ++wave) {
    SCOPED_TRACE("wave " + std::to_string(wave));
    // Joins, controlled leaves, and crashes interleaved.
    runner.populate(4);
    auto live = be.overlay().live_peers();
    for (int k = 0; k < 2 && live.size() > 8; ++k) {
      const auto victim = live[rng.index(live.size())];
      if (wave % 2 == 0) {
        be.overlay().controlled_leave(victim);
      } else {
        be.overlay().crash(victim);
      }
      be.overlay().settle();
      live = be.overlay().live_peers();
    }
    ASSERT_GE(runner.converge(300), 0);
    const auto r = checker(be.overlay()).check();
    EXPECT_TRUE(r.legal()) << r.violations.front();
    // Accuracy spot check: the repaired tree routes every match.
    const auto acc = runner.publish_sweep(20, workload::event_family::matching);
    EXPECT_EQ(acc.false_negatives, 0u);
  }
}

}  // namespace
}  // namespace drt::overlay
