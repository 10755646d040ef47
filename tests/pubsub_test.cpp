// Broker façade tests: multi-subscription clients, unsubscribe, delivery
// callbacks, client-level accuracy, handle hashing, and whole-client
// teardown.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>

#include "engine/runner.h"
#include "pubsub/broker.h"
#include "workload/workload.h"

namespace drt::pubsub {
namespace {

using geo::make_rect2;

engine::overlay_backend_config small_config(std::uint64_t seed = 5) {
  engine::overlay_backend_config bc;
  bc.net.seed = seed;
  bc.dr.min_children = 2;
  bc.dr.max_children = 6;
  return bc;
}

/// Stabilization rounds on the broker's overlay until it is legal;
/// rounds needed, or -1.
int converge(broker& b, int max_rounds = 100) {
  return engine::scenario_runner(b.backend()).converge(max_rounds);
}

TEST(Broker, SingleClientSingleSubscription) {
  broker b(small_config());
  const auto alice = b.add_client();
  b.subscribe(alice, make_rect2(0, 0, 100, 100));
  EXPECT_GE(converge(b), 0);

  const auto out = b.publish(alice, {{50, 50}});
  EXPECT_EQ(out.notified, std::vector<client_id>{alice});
  EXPECT_EQ(out.matching_clients, 1u);
  EXPECT_EQ(out.client_false_negatives, 0u);
}

TEST(Broker, MultipleClientsRouteByFilter) {
  broker b(small_config(7));
  const auto alice = b.add_client();
  const auto bob = b.add_client();
  const auto carol = b.add_client();
  b.subscribe(alice, make_rect2(0, 0, 40, 40));
  b.subscribe(bob, make_rect2(60, 60, 100, 100));
  b.subscribe(carol, make_rect2(0, 0, 100, 100));
  ASSERT_GE(converge(b), 0);

  const auto out = b.publish(alice, {{20, 20}});
  // alice and carol match; bob must not be counted as matching.
  EXPECT_EQ(out.matching_clients, 2u);
  EXPECT_EQ(out.client_false_negatives, 0u);
  std::set<client_id> notified(out.notified.begin(), out.notified.end());
  EXPECT_TRUE(notified.count(alice));
  EXPECT_TRUE(notified.count(carol));
}

TEST(Broker, MultiSubscriptionClientNotifiedOnce) {
  broker b(small_config(11));
  const auto alice = b.add_client();
  // Three overlapping filters, all matching the same event.
  b.subscribe(alice, make_rect2(0, 0, 50, 50));
  b.subscribe(alice, make_rect2(10, 10, 60, 60));
  b.subscribe(alice, make_rect2(20, 20, 70, 70));
  const auto bob = b.add_client();
  b.subscribe(bob, make_rect2(80, 80, 90, 90));
  ASSERT_GE(converge(b), 0);
  EXPECT_EQ(b.subscriptions_of(alice).size(), 3u);

  int alice_deliveries = 0;
  b.set_delivery_callback([&](client_id c, const spatial::event&) {
    if (c == alice) ++alice_deliveries;
  });
  const auto out = b.publish(bob, {{30, 30}});
  EXPECT_EQ(out.client_false_negatives, 0u);
  // De-duplication: one notification despite three matching filters.
  EXPECT_EQ(alice_deliveries, 1);
}

TEST(Broker, UnsubscribeStopsMatching) {
  broker b(small_config(13));
  const auto alice = b.add_client();
  const auto bob = b.add_client();
  const auto sub = b.subscribe(alice, make_rect2(0, 0, 50, 50));
  b.subscribe(bob, make_rect2(0, 0, 100, 100));
  ASSERT_GE(converge(b), 0);

  EXPECT_TRUE(b.unsubscribe(sub));
  ASSERT_GE(converge(b), 0);
  EXPECT_TRUE(b.subscriptions_of(alice).empty());

  const auto out = b.publish(bob, {{25, 25}});
  EXPECT_EQ(out.matching_clients, 1u);  // only bob now
  EXPECT_EQ(out.client_false_negatives, 0u);
}

TEST(Broker, UnsubscribeUnknownHandleFails) {
  broker b(small_config(17));
  const auto alice = b.add_client();
  const auto sub = b.subscribe(alice, make_rect2(0, 0, 10, 10));
  EXPECT_TRUE(b.unsubscribe(sub));
  EXPECT_FALSE(b.unsubscribe(sub));  // second time: gone
  subscription_handle bogus{alice, 999};
  EXPECT_FALSE(b.unsubscribe(bogus));
}

TEST(Broker, PublisherWithoutSubscriptionsCanPublish) {
  broker b(small_config(19));
  const auto producer = b.add_client();  // pure publisher
  const auto consumer = b.add_client();
  b.subscribe(consumer, make_rect2(0, 0, 100, 100));
  ASSERT_GE(converge(b), 0);

  const auto out = b.publish(producer, {{10, 10}});
  EXPECT_EQ(out.client_false_negatives, 0u);
  EXPECT_EQ(out.matching_clients, 1u);
}

TEST(Broker, NoClientFalseNegativesUnderLoad) {
  broker b(small_config(23));
  util::rng rng(29);
  workload::subscription_params params;
  params.workspace = b.backend().overlay().config().workspace;
  std::vector<client_id> clients;
  // 20 clients x 3 subscriptions.
  const auto rects = workload::make_subscriptions(
      workload::subscription_family::uniform, 60, rng, params);
  for (int c = 0; c < 20; ++c) clients.push_back(b.add_client());
  for (std::size_t i = 0; i < rects.size(); ++i) {
    b.subscribe(clients[i % clients.size()], rects[i]);
  }
  ASSERT_GE(converge(b), 0);

  std::uint64_t fn = 0;
  std::uint64_t fp = 0;
  std::uint64_t matches = 0;
  for (int e = 0; e < 200; ++e) {
    const auto value = workload::make_event_point(
        workload::event_family::matching, rng, params.workspace, rects);
    const auto out = b.publish(clients[rng.index(clients.size())], value);
    fn += out.client_false_negatives;
    fp += out.client_false_positives;
    matches += out.matching_clients;
  }
  EXPECT_EQ(fn, 0u);
  EXPECT_GT(matches, 0u);
  // Client-level FP rate (probability a client is notified of an event
  // none of its filters match) stays bounded.  It aggregates the per-peer
  // FP of all the client's logical subscribers, so it sits above the
  // ~3% per-peer rate but far below broadcast.
  EXPECT_LT(static_cast<double>(fp),
            0.25 * 200.0 * static_cast<double>(clients.size()));
}

TEST(Broker, SurvivesChurnOfSubscriptions) {
  broker b(small_config(31));
  util::rng rng(37);
  workload::subscription_params params;
  params.workspace = b.backend().overlay().config().workspace;
  std::vector<subscription_handle> handles;
  const auto alice = b.add_client();
  const auto rects = workload::make_subscriptions(
      workload::subscription_family::uniform, 40, rng, params);
  for (const auto& r : rects) handles.push_back(b.subscribe(alice, r));
  ASSERT_GE(converge(b), 0);

  // Remove every other subscription, then add fresh ones.
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    EXPECT_TRUE(b.unsubscribe(handles[i]));
  }
  const auto fresh = workload::make_subscriptions(
      workload::subscription_family::clustered, 10, rng, params);
  for (const auto& r : fresh) b.subscribe(alice, r);
  ASSERT_GE(converge(b, 200), 0);
  EXPECT_TRUE(b.backend().legal());
  EXPECT_EQ(b.subscriptions_of(alice).size(), 30u);
}

TEST(Broker, HandlesHashIntoUnorderedContainers) {
  broker b(small_config(53));
  const auto alice = b.add_client();
  const auto bob = b.add_client();
  std::unordered_set<subscription_handle> handles;
  handles.insert(b.subscribe(alice, make_rect2(0, 0, 10, 10)));
  handles.insert(b.subscribe(alice, make_rect2(5, 5, 20, 20)));
  handles.insert(b.subscribe(bob, make_rect2(0, 0, 10, 10)));
  EXPECT_EQ(handles.size(), 3u);  // distinct peers => distinct handles

  // Re-inserting an existing handle is a no-op; lookup round-trips.
  const auto h = *handles.begin();
  handles.insert(h);
  EXPECT_EQ(handles.size(), 3u);
  EXPECT_TRUE(handles.count(h));
  // Different (client, peer) pairs hash to different buckets in practice
  // (splitmix64 finalizer): equality is what matters, but a degenerate
  // all-collide hash would make the container useless.
  const std::size_t h1 = std::hash<subscription_handle>{}(
      subscription_handle{1, 1});
  const std::size_t h2 = std::hash<subscription_handle>{}(
      subscription_handle{1, 2});
  const std::size_t h3 = std::hash<subscription_handle>{}(
      subscription_handle{2, 1});
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(Broker, UnsubscribeAllTearsDownWithoutHandles) {
  broker b(small_config(59));
  const auto alice = b.add_client();
  const auto bob = b.add_client();
  b.subscribe(alice, make_rect2(0, 0, 50, 50));
  b.subscribe(alice, make_rect2(20, 20, 80, 80));
  b.subscribe(alice, make_rect2(40, 0, 90, 30));
  b.subscribe(bob, make_rect2(0, 0, 100, 100));
  ASSERT_GE(converge(b), 0);

  EXPECT_EQ(b.unsubscribe_all(alice), 3u);
  EXPECT_TRUE(b.subscriptions_of(alice).empty());
  EXPECT_EQ(b.unsubscribe_all(alice), 0u);    // idempotent
  EXPECT_EQ(b.unsubscribe_all(999), 0u);      // unknown client
  ASSERT_GE(converge(b, 200), 0);
  EXPECT_TRUE(b.backend().legal());

  // The client is still registered: it can publish and re-subscribe.
  const auto out = b.publish(alice, {{30, 30}});
  EXPECT_EQ(out.matching_clients, 1u);  // only bob matches now
  EXPECT_EQ(out.client_false_negatives, 0u);
  b.subscribe(alice, make_rect2(0, 0, 60, 60));
  ASSERT_GE(converge(b, 200), 0);
  EXPECT_EQ(b.subscriptions_of(alice).size(), 1u);
}

TEST(Broker, PublishReportsMaxHops) {
  broker b(small_config(61));
  const auto alice = b.add_client();
  util::rng rng(67);
  workload::subscription_params params;
  params.workspace = b.backend().overlay().config().workspace;
  const auto rects = workload::make_subscriptions(
      workload::subscription_family::uniform, 24, rng, params);
  for (const auto& r : rects) b.subscribe(alice, r);
  ASSERT_GE(converge(b), 0);

  std::size_t worst = 0;
  for (int e = 0; e < 50; ++e) {
    const auto value = workload::make_event_point(
        workload::event_family::matching, rng, params.workspace, rects);
    worst = std::max(worst, b.publish(alice, value).max_hops);
  }
  // Dissemination paths exist and are bounded by the overlay's hop
  // budget (they run root-to-leaf in a balanced tree).
  EXPECT_GT(worst, 0u);
  EXPECT_LE(worst, overlay::kMaxRouteHops);
}

TEST(Broker, RemoveClientDropsAllSubscriptions) {
  broker b(small_config(47));
  const auto alice = b.add_client();
  const auto bob = b.add_client();
  b.subscribe(alice, make_rect2(0, 0, 50, 50));
  b.subscribe(alice, make_rect2(20, 20, 80, 80));
  b.subscribe(bob, make_rect2(0, 0, 100, 100));
  ASSERT_GE(converge(b), 0);

  EXPECT_TRUE(b.remove_client(alice));
  EXPECT_FALSE(b.remove_client(alice));  // already gone
  ASSERT_GE(converge(b, 200), 0);
  EXPECT_TRUE(b.backend().legal());

  const auto out = b.publish(bob, {{30, 30}});
  EXPECT_EQ(out.matching_clients, 1u);  // only bob remains
  EXPECT_EQ(out.client_false_negatives, 0u);
  for (const auto c : out.notified) EXPECT_NE(c, alice);
}

TEST(Broker, EfficientLeaveVariantWorks) {
  auto bc = small_config(41);
  bc.dr.efficient_leave = true;
  broker b(bc);
  const auto alice = b.add_client();
  util::rng rng(43);
  workload::subscription_params params;
  params.workspace = b.backend().overlay().config().workspace;
  const auto rects = workload::make_subscriptions(
      workload::subscription_family::uniform, 30, rng, params);
  std::vector<subscription_handle> handles;
  for (const auto& r : rects) handles.push_back(b.subscribe(alice, r));
  ASSERT_GE(converge(b), 0);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(b.unsubscribe(handles[i]));
  }
  ASSERT_GE(converge(b, 200), 0);
  EXPECT_TRUE(b.backend().legal());
}

TEST(Broker, DeliveryCallbacksFireInAscendingClientId) {
  broker b(small_config(71));
  std::vector<client_id> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(b.add_client());
    b.subscribe(clients.back(), make_rect2(0, 0, 100, 100));
  }
  ASSERT_GE(converge(b), 0);

  std::vector<client_id> order;
  b.set_delivery_callback(
      [&](client_id c, const spatial::event&) { order.push_back(c); });
  const auto out = b.publish(clients.front(), {{50, 50}});
  EXPECT_EQ(out.notified, clients);
  EXPECT_EQ(order, clients);
}

TEST(Broker, OneSubscriptionPerClientMatchesBackendAccounting) {
  // With one subscription per client, client-level accounting is
  // subscription-level accounting: a broker and a drtree_backend over the
  // same config and filters report the same numbers for the same events
  // published from the same subscriptions.
  const auto cfg = small_config(23);
  broker b(cfg);
  engine::drtree_backend be(cfg);
  util::rng rng(7);
  workload::subscription_params params;
  params.workspace = b.backend().overlay().config().workspace;
  const auto rects = workload::make_subscriptions(
      workload::subscription_family::uniform, 24, rng, params);
  std::vector<client_id> clients;
  std::vector<engine::sub_id> subs;
  for (const auto& r : rects) {
    clients.push_back(b.add_client());
    b.subscribe(clients.back(), r);
    subs.push_back(be.subscribe(r));
  }
  ASSERT_GE(converge(b), 0);
  ASSERT_GE(engine::scenario_runner(be).converge(100), 0);

  for (int e = 0; e < 100; ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    const auto family = e < 50 ? workload::event_family::matching
                               : workload::event_family::uniform;
    const auto value =
        workload::make_event_point(family, rng, params.workspace, rects);
    const auto i = rng.index(clients.size());
    const auto out = b.publish(clients[i], value);
    const auto rep = be.publish(subs[i], value);
    EXPECT_EQ(out.matching_clients, rep.interested);
    EXPECT_EQ(out.notified.size(), rep.delivered);
    EXPECT_EQ(out.client_false_positives, rep.false_positives);
    EXPECT_EQ(out.client_false_negatives, rep.false_negatives);
    EXPECT_EQ(out.messages, rep.messages);
    EXPECT_EQ(out.max_hops, rep.max_hops);
  }
}

}  // namespace
}  // namespace drt::pubsub
