#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

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
  cfg.link.min_delay = 2.0;
  cfg.link.max_delay = 3.0;
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
  cfg.link.loss = 0.5;
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
  ASSERT_TRUE(s.partition({b}));
  s.send(a, b, 1);
  s.run_steps(10);
  EXPECT_TRUE(probe(s, b).received.empty());
  EXPECT_EQ(s.metrics().messages_partitioned, 1u);

  s.heal_partition();
  s.send(a, b, 2);
  s.run_steps(10);
  EXPECT_EQ(probe(s, b).received.size(), 1u);
}

TEST(Simulator, PartitionRejectsIdsThatNameNoProcess) {
  simulator s;
  const auto a = s.add_process(std::make_unique<probe_process>());
  const auto b = s.add_process(std::make_unique<probe_process>());
  const auto past_end = static_cast<process_id>(s.process_count());
  // The last side names a real process first: nothing may be installed
  // before the bad id is seen.
  const std::vector<std::vector<process_id>> bad_sides = {
      {kNoProcess}, {past_end}, {b, kNoProcess}};
  for (const auto& side_b : bad_sides) {
    s.send(a, b, 1);  // in flight across the would-be cut
    EXPECT_FALSE(s.partition(side_b));
    EXPECT_FALSE(s.net_model().partitioned());
    EXPECT_TRUE(s.reachable(a, b));
    EXPECT_EQ(s.pending_work(), 1u);  // nothing purged
    s.run_steps(10);
  }
  EXPECT_EQ(probe(s, b).received.size(), bad_sides.size());
  EXPECT_EQ(s.metrics().messages_partitioned, 0u);
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

  // Far events beyond the window go to the ordered run while they arrive
  // in time order, otherwise to the heap.  A run event and a heap event
  // with equal `at` pop by seq, whichever of the two holds the lower one.
  const double far = 16.0 * horizon;
  const auto run_first = seq;
  push_at(far);               // run
  push_at(far + 1.0);         // run
  const auto heap_second = seq;
  push_at(far);               // heap: earlier than the run's back
  push_at(far + 1.0);         // run: ties the run's back, appended
  // The heap holds the lower seq: purge the run's back so the run
  // accepts an event at the heap event's time again.
  const auto purged = seq;
  push_at(far + 3.0 * horizon);  // run
  const auto heap_first = seq;
  push_at(far + 2.0 * horizon);  // heap
  EXPECT_EQ(q.erase_if([&](const pending_event& ev) {
              return ev.seq == purged;
            }),
            1u);
  {
    std::priority_queue<ref_item, std::vector<ref_item>,
                        std::greater<ref_item>>
        kept;
    while (!ref.empty()) {
      if (ref.top().second != purged) kept.push(ref.top());
      ref.pop();
    }
    ref = std::move(kept);
  }
  const auto run_second = seq;
  push_at(far + 2.0 * horizon);  // run: ties the heap event
  std::vector<std::uint64_t> order;
  while (!ref.empty()) {
    order.push_back(ref.top().second);
    pop_and_check();
  }
  EXPECT_TRUE(q.empty());
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], run_first);
  EXPECT_EQ(order[1], heap_second);
  EXPECT_EQ(order[4], heap_first);
  EXPECT_EQ(order[5], run_second);
}

// The simulator's liveness index (a bitmap plus a Fenwick tree over its
// per-word popcounts) must agree with a plain per-id record after every
// add/crash/restart: count, rank and select, over ~3k ids, so the walk
// crosses many 64-id words and every Fenwick power-of-two boundary up to
// 32 words.  Also pins the rank/select mapping dr_overlay::contact_node
// uses for "the k-th live id other than `asking`" against the id-order
// walk it replaced, with `asking` alive and dead.
TEST(Simulator, LiveIndexMatchesScan) {
  simulator s;
  std::vector<bool> live;  // the reference: one flag per id
  util::rng r(77);

  // The k-th live id != asking as one rank plus one select pick it; the
  // old walk took the k-th entry of the id-order candidate list.
  auto index_pick = [&](process_id asking, std::size_t k) {
    if (s.is_alive(asking) && k >= s.live_before(asking)) ++k;
    return s.nth_live(k);
  };
  std::vector<process_id> walk;

  // Compares everything against the reference; returns the first
  // disagreement, or "" (gtest assertions per id would dominate the run).
  auto mismatch = [&](bool with_picks) -> std::string {
    std::size_t n = 0;
    for (process_id id = 0; id < live.size(); ++id) {
      if (s.is_alive(id) != live[id]) return "is_alive " + std::to_string(id);
      if (s.live_before(id) != n) return "live_before " + std::to_string(id);
      if (live[id] && s.nth_live(n++) != id) {
        return "nth_live " + std::to_string(n - 1);
      }
    }
    if (s.live_count() != n) return "live_count";
    if (s.live_before(static_cast<process_id>(live.size())) != n) {
      return "live_before(end)";
    }
    std::size_t visited = 0;
    bool visited_dead = false;
    s.for_each_live([&](process_id id) {
      visited_dead = visited_dead || !live[id];
      ++visited;
    });
    if (visited != n || visited_dead) return "for_each_live";
    if (live.empty() || !with_picks) return "";
    for (const bool want_live : {true, false}) {
      // One asking id of each state, when there is one.
      process_id asking = kNoProcess;
      for (int tries = 0; tries < 8 && asking == kNoProcess; ++tries) {
        const auto id = static_cast<process_id>(r.index(live.size()));
        if (live[id] == want_live) asking = id;
      }
      if (asking == kNoProcess) continue;
      walk.clear();
      for (process_id id = 0; id < live.size(); ++id) {
        if (live[id] && id != asking) walk.push_back(id);
      }
      for (std::size_t k = 0; k < walk.size(); ++k) {
        if (index_pick(asking, k) != walk[k]) {
          return "contact pick, asking " + std::to_string(asking) + " k " +
                 std::to_string(k);
        }
      }
    }
    return "";
  };
  // Count, rank and select after every step; the O(N) contact-pick
  // sweep on every 16th step and at every edge case.
  std::size_t steps = 0;
  auto check = [&] { ASSERT_EQ(mismatch(steps++ % 16 == 0), ""); };
  auto check_all = [&] { ASSERT_EQ(mismatch(true), ""); };

  check_all();  // no processes at all
  // Grow to ~3k ids with crashes and restarts mixed in.
  while (live.size() < 3000) {
    const double u = r.next_double();
    if (u < 0.7 || live.empty()) {
      s.add_process(std::make_unique<probe_process>());
      live.push_back(true);
    } else {
      const auto id = static_cast<process_id>(r.index(live.size()));
      if (u < 0.9) {
        s.crash(id);
        live[id] = false;
      } else {
        s.restart(id);
        live[id] = true;
      }
    }
    check();
  }
  // All dead, then a single live id at either end and in the middle.
  for (process_id id = 0; id < live.size(); ++id) {
    s.crash(id);
    live[id] = false;
  }
  check_all();
  for (const auto only : {process_id{0}, process_id{1500}, process_id{2999}}) {
    s.restart(only);
    live[only] = true;
    check_all();
    s.crash(only);
    live[only] = false;
  }
  check();
  // Revive everything, then thin out again at random.
  for (process_id id = 0; id < live.size(); ++id) {
    s.restart(id);
    live[id] = true;
  }
  check_all();
  for (int step = 0; step < 400; ++step) {
    const auto id = static_cast<process_id>(r.index(live.size()));
    if (live[id]) {
      s.crash(id);
    } else {
      s.restart(id);
    }
    live[id] = !live[id];
    check();
  }
}

// Crash purges destroy in-flight pooled envelopes; their blocks must
// return to the pool's free lists, so repeated storm-then-crash cycles
// reuse the same slabs instead of carving new ones.
TEST(Simulator, PayloadPoolRecyclesAcrossCrashPurges) {
  simulator_config cfg;
  cfg.link.min_delay = 5.0;  // keep the storm in flight until the crash
  cfg.link.max_delay = 6.0;
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
