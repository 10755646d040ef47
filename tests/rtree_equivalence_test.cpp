// Golden old-vs-new equivalence for the arena-backed R-tree substrate.
//
// `refimpl::rtree` below is the pre-arena implementation (PR 4 replaced
// it): heap-allocated nodes chained through std::unique_ptr, a
// std::vector<entry> per node, and by-value query results.  The arena
// rewrite claims *identical semantics* — same Guttman/R* algorithms,
// same tie-breaking, same entry ordering — so a randomized interleaving
// of insert/erase/search ops must produce identical result sets AND
// identical structure counters (splits, reinsertions, nodes, height) on
// both.  The fuzz below pins that claim per split policy.
//
// This file also carries:
//  * an arena free-list stress (erase/condense churn under high
//    min_fill), which the CI ASan/UBSan job runs;
//  * allocation-count tests proving the query path performs zero heap
//    allocations (global operator new/delete are instrumented here).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "rtree/rtree.h"
#include "rtree/split.h"
#include "util/rng.h"

#include "alloc_counter.h"

namespace drt::rtree {
namespace refimpl {

// The old pointer-based R-tree, verbatim in structure (trimmed of
// bulk-load/nearest, which the fuzz covers through the public arena
// API instead).
template <std::size_t D>
class rtree {
 public:
  using rect_t = geo::rect<D>;
  using point_t = geo::point<D>;

  explicit rtree(rtree_config config = {}) : config_(config) {
    root_ = std::make_unique<node>(/*leaf=*/true);
  }

  std::size_t size() const { return size_; }
  std::size_t height() const { return height_of(*root_); }

  void insert(const rect_t& r, std::uint64_t payload) {
    reinserted_levels_.assign(height(), false);
    insert_entry(entry{r, nullptr, payload}, 0);
    ++size_;
  }

  bool erase(const rect_t& r, std::uint64_t payload) {
    node* leaf = nullptr;
    std::vector<node*> path;
    find_leaf(*root_, r, payload, path, leaf);
    if (leaf == nullptr) return false;
    for (std::size_t i = 0; i < leaf->entries.size(); ++i) {
      if (leaf->entries[i].payload == payload && leaf->entries[i].mbr == r) {
        leaf->entries.erase(leaf->entries.begin() +
                            static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    condense(path);
    --size_;
    while (!root_->leaf && root_->entries.size() == 1) {
      auto child = std::move(root_->entries[0].child);
      root_ = std::move(child);
    }
    return true;
  }

  std::vector<std::uint64_t> search_point(const point_t& p) const {
    std::vector<std::uint64_t> out;
    search_point_rec(*root_, p, out);
    return out;
  }

  std::vector<std::uint64_t> search_intersects(const rect_t& query) const {
    std::vector<std::uint64_t> out;
    search_intersects_rec(*root_, query, out);
    return out;
  }

  rtree_stats stats() const {
    rtree_stats s;
    s.height = height();
    s.splits = splits_;
    s.reinsertions = reinsertions_;
    collect_stats(*root_, s);
    return s;
  }

 private:
  struct node;
  struct entry {
    rect_t mbr = rect_t::empty();
    std::unique_ptr<node> child;
    std::uint64_t payload = 0;
  };
  struct node {
    explicit node(bool is_leaf) : leaf(is_leaf) {}
    bool leaf;
    std::vector<entry> entries;
  };

  rtree_config config_;
  std::unique_ptr<node> root_;
  std::size_t size_ = 0;
  std::size_t splits_ = 0;
  std::size_t reinsertions_ = 0;
  std::vector<bool> reinserted_levels_;

  static rect_t mbr_of(const node& n) {
    auto r = rect_t::empty();
    for (const auto& e : n.entries) r = join(r, e.mbr);
    return r;
  }

  std::size_t height_of(const node& n) const {
    if (n.leaf) return 1;
    return 1 + height_of(*n.entries.front().child);
  }

  node* choose_node(const rect_t& r, std::size_t target_level,
                    std::vector<node*>& path) {
    node* current = root_.get();
    std::size_t level = height() - 1;
    path.clear();
    while (!current->leaf && level > target_level) {
      path.push_back(current);
      entry* best = nullptr;
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (auto& e : current->entries) {
        const double grow = e.mbr.enlargement(r);
        const double area = e.mbr.area();
        if (grow < best_enlargement ||
            (grow == best_enlargement && area < best_area)) {
          best_enlargement = grow;
          best_area = area;
          best = &e;
        }
      }
      current = best->child.get();
      --level;
    }
    return current;
  }

  void insert_entry(entry e, std::size_t target_level) {
    std::vector<node*> path;
    node* target = choose_node(e.mbr, target_level, path);
    target->entries.push_back(std::move(e));
    handle_overflow(target, path, target_level);
  }

  void handle_overflow(node* n, std::vector<node*>& path, std::size_t level) {
    if (n->entries.size() <= config_.max_fill) {
      adjust_path_mbrs(path);
      return;
    }
    if (config_.rstar_reinsert && level < reinserted_levels_.size() &&
        !reinserted_levels_[level] && n != root_.get()) {
      reinserted_levels_[level] = true;
      reinsert_some(n, path, level);
      return;
    }
    split_node(n, path, level);
  }

  void reinsert_some(node* n, std::vector<node*>& path, std::size_t level) {
    const auto center = mbr_of(*n).center();
    auto distance2 = [&](const entry& e) {
      const auto c = e.mbr.center();
      double d2 = 0.0;
      for (std::size_t i = 0; i < D; ++i) {
        const double d = c[i] - center[i];
        d2 += d * d;
      }
      return d2;
    };
    std::stable_sort(n->entries.begin(), n->entries.end(),
                     [&](const entry& a, const entry& b) {
                       return distance2(a) > distance2(b);
                     });
    auto count = static_cast<std::size_t>(
        config_.reinsert_fraction * static_cast<double>(n->entries.size()));
    count = std::max<std::size_t>(1, count);
    std::vector<entry> removed;
    removed.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      removed.push_back(std::move(n->entries[i]));
    }
    n->entries.erase(n->entries.begin(),
                     n->entries.begin() + static_cast<std::ptrdiff_t>(count));
    adjust_path_mbrs(path);
    reinsertions_ += removed.size();
    for (auto& e : removed) insert_entry(std::move(e), level);
  }

  void split_node(node* n, std::vector<node*>& path, std::size_t level) {
    ++splits_;
    std::vector<split_entry<D>> packed(n->entries.size());
    for (std::size_t i = 0; i < n->entries.size(); ++i) {
      packed[i] = {n->entries[i].mbr, i};
    }
    auto outcome = split_entries<D>(std::move(packed), config_.min_fill,
                                    config_.method);
    auto take = [&](const std::vector<split_entry<D>>& group) {
      std::vector<entry> out;
      out.reserve(group.size());
      for (const auto& se : group) {
        out.push_back(std::move(n->entries[se.handle]));
      }
      return out;
    };
    auto left_entries = take(outcome.left);
    auto right_entries = take(outcome.right);

    auto sibling = std::make_unique<node>(n->leaf);
    sibling->entries = std::move(right_entries);
    n->entries = std::move(left_entries);

    if (n == root_.get()) {
      auto new_root = std::make_unique<node>(/*leaf=*/false);
      entry left_e;
      left_e.mbr = mbr_of(*root_);
      left_e.child = std::move(root_);
      entry right_e;
      right_e.mbr = mbr_of(*sibling);
      right_e.child = std::move(sibling);
      new_root->entries.push_back(std::move(left_e));
      new_root->entries.push_back(std::move(right_e));
      root_ = std::move(new_root);
      reinserted_levels_.assign(height(), false);
      return;
    }

    node* parent = path.back();
    path.pop_back();
    for (auto& e : parent->entries) {
      if (e.child.get() == n) {
        e.mbr = mbr_of(*n);
        break;
      }
    }
    entry sibling_e;
    sibling_e.mbr = mbr_of(*sibling);
    sibling_e.child = std::move(sibling);
    parent->entries.push_back(std::move(sibling_e));
    handle_overflow(parent, path, level + 1);
  }

  void adjust_path_mbrs(std::vector<node*>& path) {
    for (std::size_t i = path.size(); i > 0; --i) {
      node* n = path[i - 1];
      for (auto& e : n->entries) {
        if (e.child) e.mbr = mbr_of(*e.child);
      }
    }
  }

  void find_leaf(node& n, const rect_t& r, std::uint64_t payload,
                 std::vector<node*>& path, node*& found) {
    if (n.leaf) {
      for (const auto& e : n.entries) {
        if (e.payload == payload && e.mbr == r) {
          found = &n;
          return;
        }
      }
      return;
    }
    path.push_back(&n);
    for (auto& e : n.entries) {
      if (e.mbr.contains(r)) {
        find_leaf(*e.child, r, payload, path, found);
        if (found != nullptr) return;
      }
    }
    path.pop_back();
  }

  void condense(std::vector<node*>& path) {
    std::vector<entry> orphans;
    for (std::size_t i = path.size(); i > 0; --i) {
      node* n = path[i - 1];
      for (std::size_t c = 0; c < n->entries.size();) {
        node* child = n->entries[c].child.get();
        if (child != nullptr && child->entries.size() < config_.min_fill) {
          collect_leaf_entries(std::move(n->entries[c].child), orphans);
          n->entries.erase(n->entries.begin() +
                           static_cast<std::ptrdiff_t>(c));
        } else {
          if (child != nullptr) n->entries[c].mbr = mbr_of(*child);
          ++c;
        }
      }
    }
    if (!root_->leaf && root_->entries.empty()) {
      root_ = std::make_unique<node>(/*leaf=*/true);
    }
    reinserted_levels_.assign(height(), false);
    for (auto& orphan : orphans) insert_entry(std::move(orphan), 0);
  }

  void collect_leaf_entries(std::unique_ptr<node> n,
                            std::vector<entry>& out) {
    if (n->leaf) {
      for (auto& e : n->entries) out.push_back(std::move(e));
      return;
    }
    for (auto& e : n->entries) collect_leaf_entries(std::move(e.child), out);
  }

  void search_point_rec(const node& n, const point_t& p,
                        std::vector<std::uint64_t>& out) const {
    for (const auto& e : n.entries) {
      if (!e.mbr.contains(p)) continue;
      if (n.leaf) {
        out.push_back(e.payload);
      } else {
        search_point_rec(*e.child, p, out);
      }
    }
  }

  void search_intersects_rec(const node& n, const rect_t& query,
                             std::vector<std::uint64_t>& out) const {
    for (const auto& e : n.entries) {
      if (!e.mbr.intersects(query)) continue;
      if (n.leaf) {
        out.push_back(e.payload);
      } else {
        search_intersects_rec(*e.child, query, out);
      }
    }
  }

  void collect_stats(const node& n, rtree_stats& s) const {
    ++s.nodes;
    if (n.leaf) {
      ++s.leaves;
      return;
    }
    s.interior_area += mbr_of(n).area();
    for (std::size_t i = 0; i < n.entries.size(); ++i) {
      for (std::size_t j = i + 1; j < n.entries.size(); ++j) {
        s.interior_overlap +=
            n.entries[i].mbr.overlap_area(n.entries[j].mbr);
      }
    }
    for (const auto& e : n.entries) collect_stats(*e.child, s);
  }
};

}  // namespace refimpl

namespace {

using geo::make_rect2;
using geo::point2;
using geo::rect2;

rect2 random_rect(util::rng& rng, double span = 100.0, double max_side = 12.0) {
  const double x = rng.uniform_real(0, span - max_side);
  const double y = rng.uniform_real(0, span - max_side);
  const double w = rng.uniform_real(0.1, max_side);
  const double h = rng.uniform_real(0.1, max_side);
  return make_rect2(x, y, x + w, y + h);
}

// One scripted operation, pre-generated so both trees replay the exact
// same sequence without sharing RNG state.
struct op {
  enum kind { insert, erase, query_point, query_rect } what;
  rect2 r;
  point2 p;
  std::uint64_t payload = 0;
};

std::vector<op> make_script(std::uint64_t seed, std::size_t n_ops) {
  util::rng rng(seed);
  std::vector<op> script;
  std::vector<std::pair<rect2, std::uint64_t>> live;
  std::uint64_t next_payload = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 45 || live.empty()) {
      op o;
      o.what = op::insert;
      o.r = random_rect(rng);
      // A few stored rects are inverted in one dimension (empty by the
      // geo::rect convention): point queries never match them, rect
      // queries must not either — pins sweep_rect's validity factor.
      if (rng.chance(0.03)) std::swap(o.r.lo[0], o.r.hi[0]);
      o.payload = next_payload++;
      live.emplace_back(o.r, o.payload);
      script.push_back(o);
    } else if (roll < 70) {
      const auto k = rng.index(live.size());
      op o;
      o.what = op::erase;
      o.r = live[k].first;
      o.payload = live[k].second;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      script.push_back(o);
    } else if (roll < 90) {
      op o;
      o.what = op::query_point;
      o.p = point2{{rng.uniform_real(0, 100), rng.uniform_real(0, 100)}};
      script.push_back(o);
    } else {
      op o;
      o.what = op::query_rect;
      o.r = random_rect(rng, 100.0, 30.0);
      // Occasional inverted (empty) query: both implementations must
      // return nothing.
      if (rng.chance(0.05)) std::swap(o.r.lo[1], o.r.hi[1]);
      script.push_back(o);
    }
  }
  return script;
}

class EquivalenceFuzz : public ::testing::TestWithParam<split_method> {};

TEST_P(EquivalenceFuzz, RandomInterleavingsMatchOldImplementation) {
  for (const std::uint64_t seed : {11ull, 23ull, 57ull}) {
    rtree_config cfg;
    cfg.min_fill = 2;
    cfg.max_fill = 6;
    cfg.method = GetParam();
    cfg.rstar_reinsert = GetParam() == split_method::rstar;

    rtree<2> arena(cfg);
    refimpl::rtree<2> reference(cfg);

    const auto script = make_script(seed, 2500);
    std::vector<std::uint64_t> got;
    std::size_t checks = 0;
    for (const auto& o : script) {
      switch (o.what) {
        case op::insert:
          arena.insert(o.r, o.payload);
          reference.insert(o.r, o.payload);
          break;
        case op::erase: {
          const bool a = arena.erase(o.r, o.payload);
          const bool b = reference.erase(o.r, o.payload);
          ASSERT_EQ(a, b);
          break;
        }
        case op::query_point: {
          arena.search_point(o.p, got);
          auto want = reference.search_point(o.p);
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          ASSERT_EQ(got, want) << "seed " << seed;
          ++checks;
          break;
        }
        case op::query_rect: {
          arena.search_intersects(o.r, got);
          auto want = reference.search_intersects(o.r);
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          ASSERT_EQ(got, want) << "seed " << seed;
          ++checks;
          break;
        }
      }
      ASSERT_EQ(arena.size(), reference.size());
    }
    EXPECT_GT(checks, 100u);

    // Identical op sequence => identical structure, not just results:
    // the arena rewrite preserved every algorithmic decision.
    const auto a = arena.stats();
    const auto b = reference.stats();
    EXPECT_EQ(a.splits, b.splits);
    EXPECT_EQ(a.reinsertions, b.reinsertions);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.leaves, b.leaves);
    EXPECT_EQ(a.height, b.height);
    EXPECT_DOUBLE_EQ(a.interior_area, b.interior_area);
    EXPECT_DOUBLE_EQ(a.interior_overlap, b.interior_overlap);
    arena.check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EquivalenceFuzz,
                         ::testing::Values(split_method::linear,
                                           split_method::quadratic,
                                           split_method::rstar),
                         [](const auto& info) { return to_string(info.param); });

TEST(EquivalenceFuzz, BulkLoadMatchesOldQuerySemantics) {
  util::rng rng(91);
  std::vector<std::pair<rect2, std::uint64_t>> items;
  refimpl::rtree<2> reference;
  for (std::uint64_t i = 0; i < 700; ++i) {
    const auto r = random_rect(rng);
    items.emplace_back(r, i);
    reference.insert(r, i);
  }
  auto packed = rtree<2>::bulk_load(items);
  packed.check_invariants();
  std::vector<std::uint64_t> got;
  for (int q = 0; q < 300; ++q) {
    point2 p{{rng.uniform_real(0, 100), rng.uniform_real(0, 100)}};
    packed.search_point(p, got);
    auto want = reference.search_point(p);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want);
  }
}

// ------------------------------------------------- arena free-list stress
// Heavy erase/condense churn with a high minimum fill: condense fires
// constantly, dissolving subtrees through the free list and reallocating
// them.  Run under ASan/UBSan in CI, this is the use-after-recycle net
// for the arena.

TEST(ArenaStress, EraseCondenseChurnRecyclesSafely) {
  rtree_config cfg;
  cfg.min_fill = 3;
  cfg.max_fill = 6;
  rtree<2> t(cfg);
  util::rng rng(131);
  std::vector<std::pair<rect2, std::uint64_t>> live;
  std::uint64_t next = 0;
  std::vector<std::uint64_t> scratch;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 400; ++i) {
      const auto r = random_rect(rng);
      live.emplace_back(r, next);
      t.insert(r, next++);
    }
    rng.shuffle(live);
    const std::size_t target = live.size() / 3;
    while (live.size() > target) {
      auto [r, id] = live.back();
      live.pop_back();
      ASSERT_TRUE(t.erase(r, id));
      if (live.size() % 97 == 0) t.check_invariants();
    }
    t.check_invariants();
    // Freed nodes must be reachable again: every surviving entry is
    // still found after the churn.
    for (const auto& [r, id] : live) {
      t.search_point(r.center(), scratch);
      ASSERT_NE(std::find(scratch.begin(), scratch.end(), id), scratch.end());
    }
  }
  const auto s = t.stats();
  EXPECT_GE(s.node_count, s.nodes);  // free-listed nodes stay in the arena
}

// ------------------------------------------------- allocation accounting

TEST(AllocationFree, VisitorSearchDoesZeroHeapAllocations) {
  rtree2 t;
  util::rng rng(171);
  for (std::uint64_t i = 0; i < 3000; ++i) t.insert(random_rect(rng), i);

  // Warm-up pass: grows the reused traversal stack to its steady state.
  util::rng warm(191);
  std::uint64_t sink = 0;
  for (int q = 0; q < 200; ++q) {
    point2 p{{warm.uniform_real(0, 100), warm.uniform_real(0, 100)}};
    t.search_point(p, [&sink](std::uint64_t v) { sink += v; });
    t.search_intersects(random_rect(warm, 100.0, 25.0),
                        [&sink](std::uint64_t v) { sink += v; });
  }

  // Identical query stream again: zero allocations allowed.
  util::rng replay(191);
  const auto before = g_allocations.load(std::memory_order_relaxed);
  for (int q = 0; q < 200; ++q) {
    point2 p{{replay.uniform_real(0, 100), replay.uniform_real(0, 100)}};
    t.search_point(p, [&sink](std::uint64_t v) { sink += v; });
    t.search_intersects(random_rect(replay, 100.0, 25.0),
                        [&sink](std::uint64_t v) { sink += v; });
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_NE(sink, 0u);
}

TEST(AllocationFree, BufferReuseSearchDoesZeroHeapAllocationsOnceWarm) {
  rtree2 t;
  util::rng rng(211);
  for (std::uint64_t i = 0; i < 3000; ++i) t.insert(random_rect(rng), i);

  std::vector<std::uint64_t> hits;
  hits.reserve(4096);  // caller-owned capacity; never exceeded below
  util::rng warm(231);
  for (int q = 0; q < 200; ++q) {
    point2 p{{warm.uniform_real(0, 100), warm.uniform_real(0, 100)}};
    t.search_point(p, hits);
  }

  util::rng replay(231);
  const auto before = g_allocations.load(std::memory_order_relaxed);
  for (int q = 0; q < 200; ++q) {
    point2 p{{replay.uniform_real(0, 100), replay.uniform_real(0, 100)}};
    t.search_point(p, hits);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace drt::rtree
