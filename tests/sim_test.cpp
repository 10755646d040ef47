#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace drt::sim {
namespace {

/// Records everything it receives.
struct probe_process : process {
  std::vector<std::pair<process_id, std::uint64_t>> received;
  std::vector<std::uint64_t> timers;
  std::vector<std::string> payloads;
  int starts = 0;
  int crashes = 0;

  void on_start() override { ++starts; }
  void on_crash() override { ++crashes; }
  void on_message(process_id from, std::uint64_t type,
                  const envelope& msg) override {
    received.emplace_back(from, type);
    if (const auto* s = msg.visit<std::string>()) {
      payloads.push_back(*s);
    }
  }
  void on_timer(std::uint64_t t) override { timers.push_back(t); }
};

probe_process& probe(simulator& s, process_id id) {
  return static_cast<probe_process&>(s.get(id));
}

TEST(Simulator, DeliversMessagesWithDelayBounds) {
  simulator_config cfg;
  cfg.min_delay = 2.0;
  cfg.max_delay = 3.0;
  simulator s(cfg);
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  s.send(a, b, 7);
  s.run_until(1.9);
  EXPECT_TRUE(probe(s, b).received.empty());  // not before min_delay
  s.run_until(3.1);
  ASSERT_EQ(probe(s, b).received.size(), 1u);
  EXPECT_EQ(probe(s, b).received[0], std::make_pair(a, std::uint64_t{7}));
}

TEST(Simulator, PayloadRoundTrip) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  s.send<std::string>(a, b, 1, "hello overlay");
  s.run_steps(10);
  ASSERT_EQ(probe(s, b).payloads.size(), 1u);
  EXPECT_EQ(probe(s, b).payloads[0], "hello overlay");
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    simulator_config cfg;
    cfg.seed = seed;
    simulator s(cfg);
    const auto a = s.add_process(std::make_unique<probe_process>());
    const auto b = s.add_process(std::make_unique<probe_process>());
    for (int i = 0; i < 50; ++i) {
      s.send(a, b, static_cast<std::uint64_t>(i));
    }
    s.run_steps(1000);
    std::vector<std::uint64_t> order;
    for (const auto& [from, type] : probe(s, b).received) {
      order.push_back(type);
    }
    return order;
  };
  EXPECT_EQ(run(5), run(5));
  // Different seeds give different interleavings (with high probability).
  EXPECT_NE(run(5), run(6));
}

TEST(Simulator, MessageLossDropsRoughlyTheConfiguredFraction) {
  simulator_config cfg;
  cfg.message_loss = 0.5;
  simulator s(cfg);
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  for (int i = 0; i < 2000; ++i) s.send(a, b, 1);
  s.run_steps(5000);
  const auto delivered = probe(s, b).received.size();
  EXPECT_GT(delivered, 800u);
  EXPECT_LT(delivered, 1200u);
  EXPECT_EQ(s.metrics().messages_dropped + s.metrics().messages_delivered,
            2000u);
}

TEST(Simulator, CrashStopsDeliveryAndRestartResumes) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  s.crash(b);
  EXPECT_FALSE(s.is_alive(b));
  EXPECT_EQ(probe(s, b).crashes, 1);
  s.send(a, b, 1);
  s.run_steps(10);
  EXPECT_TRUE(probe(s, b).received.empty());
  EXPECT_EQ(s.metrics().messages_to_dead, 1u);

  s.restart(b);
  EXPECT_TRUE(s.is_alive(b));
  EXPECT_EQ(probe(s, b).starts, 2);
  s.send(a, b, 2);
  s.run_steps(10);
  EXPECT_EQ(probe(s, b).received.size(), 1u);
}

TEST(Simulator, CrashIsIdempotent) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  s.crash(a);
  s.crash(a);
  EXPECT_EQ(probe(s, a).crashes, 1);
}

TEST(Simulator, OneShotTimerFiresOnce) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  s.schedule_timer(a, 42, 5.0);
  s.run_until(4.9);
  EXPECT_TRUE(probe(s, a).timers.empty());
  s.run_until(100.0);
  EXPECT_EQ(probe(s, a).timers, std::vector<std::uint64_t>{42});
}

TEST(Simulator, RunStepsDrainsOnlyPendingWork) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  s.schedule_quiet_timer(a, 1, 5.0);
  s.send(a, b, 3);
  EXPECT_EQ(s.pending_work(), 1u);
  const auto steps = s.run_steps(100);
  EXPECT_EQ(steps, 1u);  // the message; the quiet timer doesn't count
  EXPECT_EQ(s.pending_work(), 0u);
  EXPECT_TRUE(probe(s, a).timers.empty());
  s.run_until(10.0);
  EXPECT_EQ(probe(s, a).timers, std::vector<std::uint64_t>{1});
}

// A quiet timer belongs to the incarnation that armed it: one due while
// its target is dead, or after a crash→restart, is dropped before it
// counts as a fired timer or a handler step, while the new incarnation's
// timer fires normally.
TEST(Simulator, QuietTimerArmedBeforeRestartIsDroppedUncounted) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  s.schedule_quiet_timer(a, 3, 1.0);  // due while dead
  s.schedule_quiet_timer(a, 4, 5.0);  // due after the restart
  s.crash(a);
  s.run_until(2.0);
  s.restart(a);
  s.schedule_quiet_timer(a, 5, 5.0);
  s.run_until(10.0);
  EXPECT_EQ(probe(s, a).timers, std::vector<std::uint64_t>{5});
  EXPECT_EQ(s.metrics().timers_fired, 1u);
  EXPECT_EQ(s.metrics().handler_steps, 1u);
}

TEST(Simulator, TimestampsAreMonotonic) {
  simulator s;
  struct echo : process {
    void on_message(process_id from, std::uint64_t type,
                    const envelope&) override {
      if (type > 0) sim().send(id(), from, type - 1);
    }
  };
  const auto a = s.add_process(std::make_unique<echo>());
  const auto b = s.add_process(std::make_unique<echo>());
  s.send(a, b, 20);  // ping-pong 20 times
  const auto t0 = s.now();
  s.run_steps(100);
  EXPECT_GT(s.now(), t0);
  EXPECT_EQ(s.metrics().messages_delivered, 21u);
}

TEST(Simulator, TraceHookSeesDeliveries) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  std::vector<simulator::trace_event> seen;
  s.set_trace([&](const simulator::trace_event& e) { seen.push_back(e); });
  s.send(a, b, 9);
  s.send(b, a, 10);
  s.run_steps(10);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].from + seen[1].from, a + b);  // both directions seen
  s.set_trace(nullptr);
  s.send(a, b, 11);
  s.run_steps(10);
  EXPECT_EQ(seen.size(), 2u);  // disabled
}

TEST(Simulator, LinkFilterPartitionsAndHeals) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  s.set_link_filter([&](process_id from, process_id to) {
    return from == to || !((from == a && to == b) || (from == b && to == a));
  });
  s.send(a, b, 1);
  s.run_steps(10);
  EXPECT_TRUE(probe(s, b).received.empty());
  EXPECT_EQ(s.metrics().messages_partitioned, 1u);

  s.set_link_filter(nullptr);  // heal
  s.send(a, b, 2);
  s.run_steps(10);
  EXPECT_EQ(probe(s, b).received.size(), 1u);
}

TEST(Simulator, SendToSelfWorks) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  s.send(a, a, 5);
  s.run_steps(5);
  ASSERT_EQ(probe(s, a).received.size(), 1u);
  EXPECT_EQ(probe(s, a).received[0].first, a);
}

TEST(Simulator, CrashPurgesInFlightMessagesImmediately) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  for (int i = 0; i < 5; ++i) s.send(a, b, 1);
  EXPECT_EQ(s.pending_work(), 5u);
  s.crash(b);
  // Dead letters are dropped at crash time: no run_steps() budget is
  // spent walking them, and they are accounted as messages_to_dead.
  EXPECT_EQ(s.pending_work(), 0u);
  EXPECT_EQ(s.metrics().messages_to_dead, 5u);
  EXPECT_EQ(s.run_steps(100), 0u);
  // A restart after the purge starts from a clean slate.
  s.restart(b);
  s.run_steps(100);
  EXPECT_TRUE(probe(s, b).received.empty());
}

TEST(Simulator, CrashPurgeKeepsOtherTraffic) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  const auto c = s.add_process(std::make_unique<probe_process>());
  s.send(a, b, 1);
  s.send(a, c, 2);
  s.schedule_timer(b, 7, 1.0);
  s.crash(b);
  EXPECT_EQ(s.metrics().messages_to_dead, 1u);
  s.run_steps(100);
  EXPECT_EQ(probe(s, c).received.size(), 1u);  // unrelated message intact
  // The timer stayed queued (timers survive for restart semantics) but
  // did not fire on the dead process.
  EXPECT_TRUE(probe(s, b).timers.empty());
}

// Pool-backed payloads (non-trivially-copyable) round-trip through the
// envelope and release their blocks for reuse.
TEST(Simulator, PooledPayloadRoundTrip) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  const std::string big(1000, 'x');  // defeats SSO and the inline buffer
  for (int i = 0; i < 100; ++i) {
    s.send<std::string>(a, b, 1, big + std::to_string(i));
    s.run_steps(10);
  }
  ASSERT_EQ(probe(s, b).payloads.size(), 100u);
  EXPECT_EQ(probe(s, b).payloads[99], big + "99");
}

TEST(Envelope, PooledBlocksRecycle) {
  payload_pool pool;
  struct tiny {
    int x;
  };
  auto e = envelope::wrap(pool, tiny{41});
  ASSERT_NE(e.visit<tiny>(), nullptr);
  EXPECT_EQ(e.visit<tiny>()->x, 41);
  EXPECT_EQ(pool.slab_count(), 1u);

  envelope moved = std::move(e);
  EXPECT_TRUE(e.empty());
  ASSERT_NE(moved.visit<tiny>(), nullptr);
  EXPECT_EQ(moved.visit<tiny>()->x, 41);

  // Release and re-wrap many times: blocks recycle from the free list,
  // no new slab is ever carved.
  moved.reset();
  for (int i = 0; i < 10000; ++i) {
    auto again = envelope::wrap(pool, tiny{i});
    ASSERT_EQ(again.visit<tiny>()->x, i);
  }
  EXPECT_EQ(pool.slab_count(), 1u);
}

TEST(Envelope, VisitReturnsNullForEmpty) {
  envelope e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.visit<int>(), nullptr);
}

// Events pushed exactly on, just inside, and far beyond the
// kBuckets-wide ring horizon must pop in strict (at, seq) order: the
// boundary event goes to the overflow heap, near-boundary ones stay in
// the ring, and deep-overflow events migrate into the window only after
// the cursor advances far enough — possibly across several refills.
TEST(CalendarQueue, OverflowHorizonBoundaries) {
  using ref_item = std::pair<double, std::uint64_t>;  // (at, seq)
  const double width = 0.5;
  const double horizon = 1024 * width;  // kBuckets * width
  calendar_queue q(width);
  std::priority_queue<ref_item, std::vector<ref_item>, std::greater<ref_item>>
      ref;
  std::uint64_t seq = 0;
  auto push_at = [&](double at) {
    pending_event ev;
    ev.at = at;
    ev.seq = seq;
    ev.what = pending_event::kind::timer;
    ev.to = static_cast<process_id>(seq % 5);
    q.push(std::move(ev));
    ref.emplace(at, seq);
    ++seq;
  };
  auto pop_and_check = [&] {
    const auto ev = q.pop();
    ASSERT_EQ(ev.at, ref.top().first);
    ASSERT_EQ(ev.seq, ref.top().second);
    ref.pop();
  };

  // Straddle the horizon from t = 0: the last ring bucket, the exact
  // boundary (first overflow bucket), one past, and deep overflow events
  // that must survive multiple window refills.
  push_at(0.0);
  push_at(width * 0.5);
  push_at(horizon - width * 0.5);   // last ring bucket
  push_at(horizon);                 // exactly on the boundary -> overflow
  push_at(horizon + width * 0.25);  // first bucket past the window
  push_at(2.0 * horizon);           // one full window away
  push_at(4.0 * horizon + 1.0);     // several windows away
  // Ties on the boundary bucket resolve by seq.
  push_at(horizon);

  // Drain the in-window events; the cursor then jumps to the overflow
  // front and migrates what now fits.
  for (int i = 0; i < 3; ++i) pop_and_check();

  // New pushes relative to the advanced cursor: some land in the ring,
  // some in overflow again.
  push_at(horizon + width * 0.75);
  push_at(horizon + horizon * 0.5);
  push_at(3.0 * horizon);

  // A purge that spans ring and overflow must keep the pop order of the
  // survivors intact (erase_if re-heapifies the overflow).
  q.erase_if([](const pending_event& ev) { return ev.to == 1; });
  {
    std::priority_queue<ref_item, std::vector<ref_item>,
                        std::greater<ref_item>>
        kept;
    while (!ref.empty()) {
      if (static_cast<process_id>(ref.top().second % 5) != 1) {
        kept.push(ref.top());
      }
      ref.pop();
    }
    ref = std::move(kept);
  }

  while (!ref.empty()) pop_and_check();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// Crash purges destroy in-flight pooled envelopes; their blocks must
// return to the pool's free lists, so repeated storm-then-crash cycles
// reuse the same slabs instead of carving new ones.
TEST(Simulator, PayloadPoolRecyclesAcrossCrashPurges) {
  simulator_config cfg;
  cfg.min_delay = 5.0;  // keep the storm in flight until the crash
  cfg.max_delay = 6.0;
  simulator s(cfg);
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  const std::string big(1000, 'y');

  // Prime: one storm establishes the steady-state slab footprint.
  for (int i = 0; i < 200; ++i) s.send<std::string>(a, b, 1, big);
  s.crash(b);  // purge releases every pooled payload
  s.restart(b);
  const auto slabs = s.pool().slab_count();
  EXPECT_GE(slabs, 1u);

  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 200; ++i) s.send<std::string>(a, b, 1, big);
    s.crash(b);
    s.restart(b);
    EXPECT_EQ(s.pool().slab_count(), slabs);
  }
  // Delivered traffic recycles the same way.
  for (int i = 0; i < 200; ++i) s.send<std::string>(a, b, 1, big);
  s.run_steps(1000);
  EXPECT_EQ(s.pool().slab_count(), slabs);
}

}  // namespace
}  // namespace drt::sim
