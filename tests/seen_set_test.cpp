// Duplicate suppression (drtree/seen_set.h).
//
// seen_set replaced a zero-filled ring linear-scanned on every event
// arrival, and claims *identical* answers: `legacy_ring` below is that
// guard, and a randomized differential run must agree with it on every
// operation.  The op mix aims at the edges of the FIFO — fresh ids,
// repeats of recent ones, ids just past eviction, id 0 (which the zero
// fill reports as seen until the ring first wraps) and arbitrary 64-bit
// ids for index collisions.
//
// The storage claims are pinned too: a fresh set owns no heap, a full
// set never allocates again (alloc_counter.h counts every operator new),
// and an overlay's seen_bytes stay 0 until events flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "drtree/overlay.h"
#include "drtree/seen_set.h"
#include "engine/backends.h"
#include "util/rng.h"

#include "alloc_counter.h"

namespace drt::overlay {
namespace {

// The reference model: the guard dr_peer used before seen_set.
class legacy_ring {
 public:
  explicit legacy_ring(std::size_t capacity)
      : ids_(std::max<std::size_t>(1, capacity), 0) {}
  bool already_seen(std::uint64_t id) {
    for (const auto e : ids_) {
      if (e == id) return true;
    }
    ids_[cursor_] = id;
    cursor_ = (cursor_ + 1) % ids_.size();
    return false;
  }

 private:
  std::vector<std::uint64_t> ids_;
  std::size_t cursor_ = 0;
};

// Draws the next id of the differential op mix.  `accepted` lists the ids
// both guards accepted, oldest first, so distance back from its end is
// distance from the eviction edge.
std::uint64_t draw_id(util::rng& rng, std::size_t cap,
                      const std::vector<std::uint64_t>& accepted,
                      std::uint64_t& next_fresh) {
  const auto roll = rng.uniform_int(0, 99);
  const auto n = static_cast<std::int64_t>(accepted.size());
  const auto back = [&](std::int64_t lo, std::int64_t hi) {
    // accepted[n - 1 - k] for k uniform in [lo, hi], clamped to history.
    const auto k = std::min(rng.uniform_int(lo, hi), n - 1);
    return accepted[static_cast<std::size_t>(n - 1 - k)];
  };
  const auto c = static_cast<std::int64_t>(cap);
  if (roll < 35 || n == 0) return next_fresh++;  // fresh
  if (roll < 60) return back(0, c - 1);          // still held
  if (roll < 80) {                               // around the eviction edge
    return back(std::max<std::int64_t>(c - 2, 0), c + 2);
  }
  if (roll < 85) return 0;                // the zero fill
  if (roll < 92) return back(0, n - 1);  // anything older
  return rng.next_u64();                 // arbitrary: index collisions
}

TEST(SeenSet, MatchesLegacyRingOnMixedOps) {
  for (const std::size_t cap : {0, 1, 2, 3, 64, 2048}) {
    SCOPED_TRACE(cap);
    util::rng rng(0x5eed + cap);
    legacy_ring ref(cap);
    seen_set set(cap);
    std::vector<std::uint64_t> accepted;
    std::uint64_t next_fresh = 1;
    std::size_t hits = 0;
    const std::size_t ops = 1'000'000;
    for (std::size_t i = 0; i < ops; ++i) {
      const auto id = draw_id(rng, std::max<std::size_t>(cap, 1), accepted,
                              next_fresh);
      const bool dup = ref.already_seen(id);
      ASSERT_EQ(!set.insert(id), dup) << "op " << i << " id " << id;
      if (dup) {
        ++hits;
      } else {
        accepted.push_back(id);
      }
    }
    // Both outcomes were exercised in bulk.
    EXPECT_GT(hits, ops / 10);
    EXPECT_GT(accepted.size(), ops / 4);
  }
}

TEST(SeenSet, ZeroReadsSeenUntilTheFirstWrap) {
  seen_set set(4);
  EXPECT_FALSE(set.insert(0));
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_TRUE(set.insert(id));
    EXPECT_FALSE(set.insert(0));
  }
  EXPECT_TRUE(set.insert(4));   // overwrites the last zero
  EXPECT_TRUE(set.insert(0));   // an ordinary id now; evicts 1
  EXPECT_FALSE(set.insert(0));
  EXPECT_FALSE(set.insert(2));  // 2, 3, 4, 0 are held
  EXPECT_TRUE(set.insert(1));   // evicts 2
  EXPECT_TRUE(set.insert(2));
}

TEST(SeenSet, FreshSetOwnsNoHeap) {
  const auto before = g_allocations.load(std::memory_order_relaxed);
  seen_set set(2048);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(set.heap_bytes(), 0u);
  // Id 0 is answered by the zero fill, so it allocates nothing either.
  EXPECT_FALSE(set.insert(0));
  EXPECT_EQ(set.heap_bytes(), 0u);
}

TEST(SeenSet, StorageFollowsUse) {
  seen_set set(2048);
  for (std::uint64_t id = 1; id <= 100; ++id) set.insert(id);
  // A hundred ids cost a fraction of the 16 KiB the zero-filled ring
  // held from the start.
  EXPECT_GT(set.heap_bytes(), 100 * sizeof(std::uint64_t));
  EXPECT_LT(set.heap_bytes(), 2048 * sizeof(std::uint64_t) / 4);
}

TEST(SeenSet, FullSetNeverAllocates) {
  for (const std::size_t cap : {1, 3, 64, 2048}) {
    SCOPED_TRACE(cap);
    seen_set set(cap);
    for (std::uint64_t id = 1; id <= cap; ++id) ASSERT_TRUE(set.insert(id));
    const auto bytes = set.heap_bytes();
    util::rng rng(cap);
    const auto before = g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < 20 * cap + 100; ++i) {
      set.insert(rng.chance(0.5) ? cap + 1 + i : rng.next_u64() % (2 * cap));
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
    EXPECT_EQ(set.heap_bytes(), bytes);
  }
}

TEST(SeenSet, OverlayCountsSeenBytesOnlyOnceEventsFlow) {
  dr_config cfg;
  engine::drtree_backend be({cfg});
  auto& ov = be.overlay();
  util::rng rng(3);
  for (int i = 0; i < 32; ++i) {
    const double x = rng.uniform_real(0, 900);
    const double y = rng.uniform_real(0, 900);
    ov.add_peer_and_settle(geo::make_rect2(x, y, x + 100, y + 100));
  }
  // Joins and stabilization never touch the guard.
  EXPECT_EQ(ov.memory_stats().seen_bytes, 0u);
  const auto arena_total = ov.memory_stats().total_bytes();

  const auto publisher = ov.live_peers().front();
  be.publish(publisher, spatial::pt{{450.0, 450.0}});
  const auto st = ov.memory_stats();
  EXPECT_GT(st.seen_bytes, 0u);
  // One event: each receiver holds one small ring, far below the
  // 16 KiB per peer a zero-filled ring of the default capacity costs.
  EXPECT_LT(st.seen_bytes, ov.live_count() * 1024);
  // seen_bytes stays out of the arena total.
  EXPECT_EQ(st.total_bytes(), arena_total);
}

}  // namespace
}  // namespace drt::overlay
