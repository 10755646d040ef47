// Determinism contract of the simulator substrate (DESIGN.md):
// event execution follows the strict total order (at, seq), so a seeded
// run is bit-reproducible — across repeated runs, and across scheduler
// implementations (the binary-heap seed vs the calendar queue).
//
// The scenario below exercises every queue path at once: joins, periodic
// stabilizers, message loss, crashes (in-flight purge), controlled
// leaves, corruption repair, publishes and range searches.  Its delivery
// trace is folded into an FNV-1a hash (including the raw bit patterns of
// the delivery timestamps) and compared against golden values recorded
// with the original std::priority_queue scheduler.  If a scheduler change
// reorders two events or perturbs one timestamp, these hashes move.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "drtree/corruptor.h"
#include "drtree/overlay.h"
#include "engine/backends.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace drt {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof(v)); }

void fnv_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fnv_u64(h, bits);
}

struct scenario_digest {
  std::uint64_t trace_hash = kFnvOffset;
  std::uint64_t metrics_hash = kFnvOffset;
  std::uint64_t deliveries = 0;

  friend bool operator==(const scenario_digest&,
                         const scenario_digest&) = default;
};

/// Fold every message delivery of `o` into `d` via the simulator trace
/// hook, timestamps as raw bit patterns.
void hash_deliveries(overlay::dr_overlay& o, scenario_digest& d) {
  o.sim().set_trace([&d](const sim::simulator::trace_event& e) {
    fnv_double(d.trace_hash, e.at);
    fnv_u64(d.trace_hash, e.from);
    fnv_u64(d.trace_hash, e.to);
    fnv_u64(d.trace_hash, e.type);
    ++d.deliveries;
  });
}

/// A random box inside the 100 x 100 workspace (four draws from `r`).
spatial::box random_box(util::rng& r) {
  const double x1 = r.uniform_real(0, 100);
  const double x2 = r.uniform_real(0, 100);
  const double y1 = r.uniform_real(0, 100);
  const double y2 = r.uniform_real(0, 100);
  return geo::make_rect2(std::min(x1, x2), std::min(y1, y2),
                         std::max(x1, x2), std::max(y1, y2));
}

/// Churn + corruption + dissemination workload over the full overlay
/// stack (publishes go through its one-shard host), fingerprinted via
/// the simulator trace hook.
scenario_digest run_scenario(std::uint64_t seed) {
  overlay::dr_config dcfg;
  dcfg.workspace = geo::make_rect2(0, 0, 100, 100);
  sim::simulator_config scfg;
  scfg.seed = seed;
  scfg.link.loss = 0.02;
  engine::drtree_backend be({dcfg, scfg});
  auto& o = be.overlay();

  scenario_digest d;
  hash_deliveries(o, d);
  util::rng geo_rng(seed ^ 0x9e3779b97f4a7c15ull);

  for (int i = 0; i < 48; ++i) o.add_peer_and_settle(random_box(geo_rng));

  auto publish_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const auto live = o.live_peers();
      const auto pub = live[geo_rng.index(live.size())];
      const spatial::pt value{
          {geo_rng.uniform_real(0, 100), geo_rng.uniform_real(0, 100)}};
      be.publish(pub, value);
    }
  };

  publish_some(10);

  // Uncontrolled churn: crashes with traffic still in flight.
  for (int i = 0; i < 6; ++i) {
    const auto live = o.live_peers();
    if (live.size() <= 4) break;
    o.crash(live[geo_rng.index(live.size())]);
  }
  o.advance(dcfg.stabilize_period);
  o.settle();

  // Controlled churn.
  for (int i = 0; i < 4; ++i) {
    const auto live = o.live_peers();
    if (live.size() <= 4) break;
    o.controlled_leave(live[geo_rng.index(live.size())]);
  }
  o.settle();

  // Transient corruption, then stabilization rounds.
  overlay::corruptor c(o, seed + 17);
  c.corrupt(overlay::uniform_corruption(0.05));
  for (int round = 0; round < 6; ++round) {
    o.advance(dcfg.stabilize_period);
    o.settle();
  }

  publish_some(10);
  for (int i = 0; i < 3; ++i) {
    const auto live = o.live_peers();
    o.search_and_drain(live[geo_rng.index(live.size())], random_box(geo_rng));
  }

  // Drain completely before reading the counters so the crash-time /
  // delivery-time accounting split of messages_to_dead cannot show.
  o.settle();

  const auto& m = o.sim().metrics();
  fnv_u64(d.metrics_hash, m.messages_sent);
  fnv_u64(d.metrics_hash, m.messages_delivered);
  fnv_u64(d.metrics_hash, m.messages_dropped);
  fnv_u64(d.metrics_hash, m.messages_partitioned);
  fnv_u64(d.metrics_hash, m.messages_to_dead);
  fnv_u64(d.metrics_hash, m.timers_fired);
  fnv_u64(d.metrics_hash, m.handler_steps);
  fnv_double(d.metrics_hash, o.sim().now());
  fnv_u64(d.metrics_hash, o.live_peers().size());
  return d;
}

TEST(SimDeterminism, SameSeedSameDigest) {
  const auto a = run_scenario(7);
  const auto b = run_scenario(7);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.deliveries, 0u);
}

TEST(SimDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(run_scenario(7), run_scenario(8));
}

// Golden digests recorded with the seed std::priority_queue scheduler.
// A scheduler that preserves the exact (at, seq) delivery order — and the
// exact RNG consumption order — reproduces them bit-for-bit.
TEST(SimDeterminism, MatchesHeapSchedulerGolden) {
  const auto d7 = run_scenario(7);
  EXPECT_EQ(d7.trace_hash, 13395966864903312472ull);
  EXPECT_EQ(d7.metrics_hash, 9174459223774240891ull);
  EXPECT_EQ(d7.deliveries, 561ull);

  const auto d11 = run_scenario(11);
  EXPECT_EQ(d11.trace_hash, 10523553348140203879ull);
  EXPECT_EQ(d11.metrics_hash, 1650083232181740924ull);
  EXPECT_EQ(d11.deliveries, 588ull);
}

/// Crash→restart at one virtual instant, then stabilizer rounds.  Each
/// restarted peer re-arms its stabilize timer while the one its previous
/// incarnation armed is still queued; that stale timer must vanish
/// without counting as a fired timer or a handler step.
scenario_digest run_restart_scenario(std::uint64_t seed) {
  overlay::dr_config dcfg;
  dcfg.workspace = geo::make_rect2(0, 0, 100, 100);
  sim::simulator_config scfg;
  scfg.seed = seed;
  overlay::dr_overlay o(dcfg, scfg);

  scenario_digest d;
  hash_deliveries(o, d);
  util::rng geo_rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < 32; ++i) o.add_peer_and_settle(random_box(geo_rng));

  std::vector<spatial::peer_id> victims;
  for (int i = 0; i < 6; ++i) {
    const auto live = o.live_peers();
    victims.push_back(live[geo_rng.index(live.size())]);
    o.crash(victims.back());
  }
  for (const auto p : victims) o.restart(p);
  for (int round = 0; round < 4; ++round) {
    o.advance(dcfg.stabilize_period);
    o.settle();
  }

  const auto& m = o.sim().metrics();
  fnv_u64(d.metrics_hash, m.timers_fired);
  fnv_u64(d.metrics_hash, m.handler_steps);
  fnv_u64(d.metrics_hash, m.messages_sent);
  fnv_double(d.metrics_hash, o.sim().now());
  return d;
}

// Recorded with the periodic-timer scheduler, which cancelled the old
// incarnation's chain on restart: counts must not include stale timers.
TEST(SimDeterminism, RestartDropsStaleStabilizeTimerGolden) {
  const auto d7 = run_restart_scenario(7);
  EXPECT_EQ(d7.trace_hash, 16678545286306769796ull);
  EXPECT_EQ(d7.metrics_hash, 16290239627083891245ull);
  EXPECT_EQ(d7.deliveries, 152ull);

  const auto d11 = run_restart_scenario(11);
  EXPECT_EQ(d11.trace_hash, 15650618475425278178ull);
  EXPECT_EQ(d11.metrics_hash, 2686177346856012423ull);
  EXPECT_EQ(d11.deliveries, 169ull);
}

// Direct scheduler equivalence: the calendar queue must pop the exact
// (at, seq) sequence a binary heap pops, under adversarial mixes of
// zero/short/long delays (long ones land beyond the ring, in the ordered
// run or the heap), partial drains, and mid-stream purges.
TEST(CalendarQueue, MatchesBinaryHeapPopOrder) {
  using ref_item = std::pair<double, std::uint64_t>;  // (at, seq)
  util::rng r(2026);
  for (int trial = 0; trial < 6; ++trial) {
    // Exercise narrow and wide buckets relative to the delay mix.
    sim::calendar_queue q(trial % 2 == 0 ? 0.125 : 0.9);
    std::priority_queue<ref_item, std::vector<ref_item>,
                        std::greater<ref_item>>
        ref;
    double now = 0.0;
    std::uint64_t seq = 0;
    auto push_one = [&] {
      double delay = 0.0;
      switch (r.uniform_int(0, 3)) {
        case 0: delay = 0.0; break;                        // active bucket
        case 1: delay = r.uniform_real(0.0, 1.5); break;   // nearby
        case 2: delay = r.uniform_real(0.0, 30.0); break;  // window-scale
        default: delay = r.uniform_real(0.0, 500.0);       // overflow
      }
      sim::pending_event ev;
      ev.at = now + delay;
      ev.seq = seq;
      ev.what = sim::pending_event::kind::timer;
      ev.to = static_cast<sim::process_id>(seq % 7);
      q.push(std::move(ev));
      ref.emplace(now + delay, seq);
      ++seq;
    };
    for (int op = 0; op < 20000; ++op) {
      if (ref.empty() || r.chance(0.55)) {
        push_one();
      } else if (r.chance(0.002)) {
        // Crash-style purge: drop every event addressed to one target
        // from both structures, then keep comparing.
        const auto victim = static_cast<sim::process_id>(r.uniform_int(0, 6));
        q.erase_if([victim](const sim::pending_event& ev) {
          return ev.to == victim;
        });
        std::priority_queue<ref_item, std::vector<ref_item>,
                            std::greater<ref_item>>
            kept;
        while (!ref.empty()) {
          if (static_cast<sim::process_id>(ref.top().second % 7) != victim) {
            kept.push(ref.top());
          }
          ref.pop();
        }
        ref = std::move(kept);
      } else {
        const auto ev = q.pop();
        ASSERT_EQ(ev.at, ref.top().first);
        ASSERT_EQ(ev.seq, ref.top().second);
        ref.pop();
        ASSERT_GE(ev.at, now);
        now = ev.at;
      }
    }
    while (!ref.empty()) {
      const auto ev = q.pop();
      ASSERT_EQ(ev.at, ref.top().first);
      ASSERT_EQ(ev.seq, ref.top().second);
      ref.pop();
      now = ev.at;
    }
    EXPECT_TRUE(q.empty());
  }

  // Stabilizer-shaped trials: a few hundred timer chains, each re-armed
  // exactly one period ahead with the period 100-400x the ring horizon
  // (1024 buckets), so far pushes mostly arrive in time order and ride
  // the ordered run; ~2 % re-arm at a restart-style random phase instead,
  // out of order, into the heap.  Short-delay messages keep the ring
  // busy.  Gaps between passes span ring wraps: with 300 chains a pass
  // is ~1.3 horizons after the last (the wheel empties and the cursor
  // jumps), with 700 chains ~0.14 horizons (the cursor skips empty
  // buckets, across the ring's end).  Purges kill a class of chains
  // wherever their timers sit, run or heap, and restart them at random
  // phases.
  using chain_item = std::tuple<double, std::uint64_t, sim::process_id>;
  for (int trial = 0; trial < 4; ++trial) {
    const double width = trial % 2 == 0 ? 0.125 : 0.9;
    const double horizon = 1024 * width;
    const double period = (trial < 2 ? 400.0 : 100.0) * horizon;
    const auto chains = static_cast<sim::process_id>(trial < 2 ? 300 : 700);
    const sim::process_id message_target = chains;
    sim::calendar_queue q(width);
    std::priority_queue<chain_item, std::vector<chain_item>,
                        std::greater<chain_item>>
        ref;
    double now = 0.0;
    std::uint64_t seq = 0;
    auto push_at = [&](double at, sim::process_id to) {
      sim::pending_event ev;
      ev.at = at;
      ev.seq = seq;
      ev.what = sim::pending_event::kind::timer;
      ev.to = to;
      q.push(std::move(ev));
      ref.emplace(at, seq, to);
      ++seq;
    };
    auto random_phase = [&] { return now + r.uniform_real(0.0, period); };
    for (sim::process_id c = 0; c < chains; ++c) push_at(random_phase(), c);
    for (int op = 0; op < 30000; ++op) {
      if (r.chance(0.002)) {
        const auto victim = static_cast<sim::process_id>(r.uniform_int(0, 12));
        auto doomed = [&](sim::process_id to) {
          return to < chains && to % 13 == victim;
        };
        const auto removed = q.erase_if(
            [&](const sim::pending_event& ev) { return doomed(ev.to); });
        std::priority_queue<chain_item, std::vector<chain_item>,
                            std::greater<chain_item>>
            kept;
        std::size_t dropped = 0;
        while (!ref.empty()) {
          if (doomed(std::get<2>(ref.top()))) {
            ++dropped;
          } else {
            kept.push(ref.top());
          }
          ref.pop();
        }
        ref = std::move(kept);
        ASSERT_EQ(removed, dropped);
        for (sim::process_id c = victim; c < chains; c += 13) {
          push_at(random_phase(), c);
        }
      } else if (r.chance(0.3)) {
        push_at(now + r.uniform_real(0.0, 1.5), message_target);
      } else {
        const auto ev = q.pop();
        ASSERT_EQ(ev.at, std::get<0>(ref.top()));
        ASSERT_EQ(ev.seq, std::get<1>(ref.top()));
        ref.pop();
        ASSERT_GE(ev.at, now);
        now = ev.at;
        if (ev.to < chains) {
          push_at(r.chance(0.02) ? random_phase() : ev.at + period, ev.to);
        }
      }
    }
    while (!ref.empty()) {
      const auto ev = q.pop();
      ASSERT_EQ(ev.at, std::get<0>(ref.top()));
      ASSERT_EQ(ev.seq, std::get<1>(ref.top()));
      ref.pop();
    }
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace drt
