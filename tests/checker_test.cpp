// Legality-checker tests: the report check() builds is pinned by a digest
// over every field, on damaged and on single-link-detached trees; legal()
// agrees with check().legal() through random churn, damage and repair;
// and neither the verdict nor a quiescent stabilize round allocates per
// peer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "drtree/checker.h"
#include "drtree/corruptor.h"
#include "drtree/overlay.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "geometry/rect.h"
#include "util/rng.h"

namespace drt::overlay {
namespace {

using engine::drtree_backend;
using engine::scenario_runner;
using spatial::kNoPeer;
using spatial::peer_id;

engine::overlay_backend_config small_config(std::uint64_t seed) {
  engine::overlay_backend_config bc;
  bc.net.seed = seed;
  bc.dr.min_children = 2;
  bc.dr.max_children = 6;
  return bc;
}

/// A legal tree of `n` peers built under small_config(seed).
void grow_legal(drtree_backend& be, std::uint64_t seed, std::size_t n) {
  engine::runner_config rc;
  rc.workload.seed = seed * 97 + 13;
  scenario_runner runner(be, rc);
  runner.populate(n);
  ASSERT_GE(runner.converge(120), 0);
}

/// FNV-1a over every field of a report, in declaration order.
struct report_digest {
  std::uint64_t h = 14695981039346656037ull;
  std::size_t reports = 0;
  std::size_t violations = 0;
  std::size_t unreachable = 0;   ///< reports naming an unreachable peer
  std::size_t many_roots = 0;    ///< reports counting more than one root
  std::size_t containment = 0;   ///< reports with containment pairs

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void num(std::uint64_t v) { bytes(&v, sizeof v); }
  void real(double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    num(u);
  }
  void text(const std::string& s) {
    num(s.size());
    bytes(s.data(), s.size());
  }

  void fold(const check_report& r) {
    ++reports;
    num(r.violations.size());
    for (const auto& v : r.violations) {
      text(v);
      if (v.find("unreachable from root") != std::string::npos) {
        ++unreachable;
      }
    }
    violations += r.violations.size();
    num(r.offenders.size());
    for (const auto p : r.offenders) num(p);
    text(r.dump_path);
    num(r.legal() ? 1 : 0);
    num(r.live_peers);
    num(r.roots);
    num(r.instances);
    num(r.height);
    num(r.reachable);
    real(r.avg_interior_children);
    num(r.max_interior_children);
    num(r.memory_links);
    num(r.max_peer_links);
    num(r.containment_pairs);
    num(r.weak_violations);
    num(r.strong_satisfied);
    if (r.roots > 1) ++many_roots;
    if (r.containment_pairs > 0) ++containment;
  }
};

// check()'s whole report — violation texts in order, offenders, roots,
// reachability, the structural statistics and check(true)'s containment
// counts — over uniform damage at three rates on three seeds of a 64-peer
// tree, and over every single-link detach of a legal 40-peer tree (the
// cases CorruptionTest.UnreachablePeerAlwaysHasALocalWitness builds).
// The constant was captured before the checker's rules were rewritten as
// one walk; it must hold unedited through any refactor of the checker.
TEST(Checker, ReportDigestHolds) {
  report_digest d;
  auto fold_both = [&](const dr_overlay& ov) {
    const checker c(ov);
    d.fold(c.check());
    d.fold(c.check(true));
  };

  for (const std::uint64_t seed : {3, 5, 7}) {
    for (const double rate : {0.1, 0.35, 1.0}) {
      drtree_backend be(small_config(seed));
      ASSERT_NO_FATAL_FAILURE(grow_legal(be, seed, 64));
      fold_both(be.overlay());
      corruptor c(be.overlay(),
                  seed * 1000 + static_cast<std::uint64_t>(rate * 100));
      ASSERT_GT(c.corrupt(uniform_corruption(rate)), 0u);
      fold_both(be.overlay());
    }
  }

  drtree_backend be(small_config(11));
  ASSERT_NO_FATAL_FAILURE(grow_legal(be, 11, 40));
  auto& ov = be.overlay();
  auto unlist = [&](instance& ins, peer_id q) {
    const auto saved = ins.children;
    ASSERT_TRUE(ins.remove_child(q));
    fold_both(ov);
    ins.children = saved;
  };
  for (const auto p : ov.live_peers()) {
    auto& peer = ov.peer(p);
    const auto top = peer.top();
    if (!peer.is_root()) {
      unlist(ov.peer(peer.inst(top).parent).inst(top + 1), p);
    }
    for (std::size_t h = 2; h <= top; ++h) unlist(peer.inst(h), p);
  }
  ASSERT_TRUE(checker(ov).check().legal());

  // The inputs reach every kind of report the digest should pin.
  EXPECT_GT(d.unreachable, 0u);
  EXPECT_GT(d.many_roots, 0u);
  EXPECT_GT(d.containment, 0u);
  SCOPED_TRACE(std::to_string(d.reports) + " reports, " +
               std::to_string(d.violations) + " violations");
  EXPECT_EQ(d.h, 402846257103373574ull);
}

// The differential oracle for the early exit: legal() must say exactly
// what check().legal() says after every step of random sequences of
// joins (settled, and left in flight), controlled leaves, crashes,
// restarts with stale state, corruptor damage up to rate 1 and single
// scrambles, single-link detaches, partitions and heals, publishes and
// stabilize rounds.  With tracing on, an illegal verdict emits exactly
// one `violation` record with a = 1 and a legal one emits none.
TEST(Checker, LegalAgreesWithCheck) {
  for (const std::size_t n : {64, 256, 1024}) {
    for (const std::uint64_t seed : {21, 22, 23}) {
      SCOPED_TRACE(std::to_string(n) + " peers, seed " + std::to_string(seed));
      auto bc = small_config(seed);
      if (n == 64) {
        bc.dr.trace = obs::trace_mode::ring;
        bc.dr.trace_dump = false;
      }
      drtree_backend be(bc);
      ASSERT_NO_FATAL_FAILURE(grow_legal(be, seed, n));
      auto& ov = be.overlay();
      const auto& ws = ov.config().workspace;
      util::rng r(seed * 7919 + n);
      corruptor damage(ov, seed * 31 + n);

      auto live_pick = [&]() -> peer_id {
        const auto live = ov.live_count();
        return live == 0 ? kNoPeer : ov.nth_live(r.index(live));
      };
      auto dead_pick = [&]() -> peer_id {
        for (int tries = 0; tries < 16; ++tries) {
          const auto p =
              static_cast<peer_id>(r.index(ov.sim().process_count()));
          if (!ov.alive(p)) return p;
        }
        return kNoPeer;
      };
      auto random_box = [&] {
        const double w = r.uniform_real(0.005, 0.1) * (ws.hi[0] - ws.lo[0]);
        const double x = r.uniform_real(ws.lo[0], ws.hi[0] - w);
        const double y = r.uniform_real(ws.lo[1], ws.hi[1] - w);
        return geo::make_rect2(x, y, x + w, y + w);
      };

      std::size_t legal_states = 0;
      std::size_t illegal_states = 0;
      for (int step = 0; step < 150; ++step) {
        const double u = r.next_double();
        std::string what;
        if (u < 0.40) {
          what = "step_round";
          be.step_round();
        } else if (u < 0.47) {
          what = "publish";
          const auto p = live_pick();
          if (p != kNoPeer) be.publish(p, spatial::pt{random_box().lo});
        } else if (u < 0.52) {
          what = "join";
          be.subscribe(random_box());
        } else if (u < 0.56) {
          what = "join in flight";
          ov.add_peer(random_box());
        } else if (u < 0.61) {
          what = "leave";
          if (const auto p = live_pick(); p != kNoPeer) be.unsubscribe(p);
        } else if (u < 0.66) {
          what = "crash";
          if (const auto p = live_pick(); p != kNoPeer) be.crash(p);
        } else if (u < 0.71) {
          what = "restart";
          if (const auto p = dead_pick(); p != kNoPeer) be.restart(p);
        } else if (u < 0.76) {
          // Rates from 0.001 to 1, most of them small.
          const double rate = std::pow(10.0, -3.0 * r.next_double());
          what = "corrupt " + std::to_string(rate);
          damage.corrupt(uniform_corruption(rate));
        } else if (u < 0.84) {
          const auto p = live_pick();
          if (p == kNoPeer) continue;
          const auto h = r.index(ov.peer(p).top() + 1);
          switch (r.index(4)) {
            case 0:
              what = "scramble mbr";
              damage.scramble_mbr(p, h);
              break;
            case 1:
              what = "flip underloaded";
              damage.flip_underloaded(p, h);
              break;
            case 2:
              what = "scramble parent";
              damage.scramble_parent(p, h);
              break;
            default:
              what = "scramble children";
              damage.scramble_children(p, h);
              break;
          }
        } else if (u < 0.92) {
          what = "detach";
          const auto p = live_pick();
          if (p == kNoPeer) continue;
          auto& peer = ov.peer(p);
          const auto top = peer.top();
          if (top >= 2 && r.chance(0.5)) {
            peer.inst(1 + r.index(top)).remove_child(p);
          } else if (const auto parent = peer.inst(top).parent;
                     parent != p && parent != kNoPeer && ov.alive(parent)) {
            if (auto* pi = ov.peer(parent).find_inst(top + 1)) {
              pi->remove_child(p);
            }
          }
        } else if (ov.partitioned()) {
          what = "heal";
          be.heal();
        } else {
          what = "partition";
          std::vector<engine::sub_id> side_b;
          ov.for_each_live([&](peer_id p) {
            if (r.chance(0.3)) side_b.push_back(p);
          });
          be.partition(side_b);
        }
        SCOPED_TRACE("step " + std::to_string(step) + ": " + what);

        const checker c(ov);
        auto* t = ov.trace();
        const auto emitted0 = t != nullptr ? t->emitted() : 0;
        const bool verdict = c.legal();
        if (t != nullptr) {
          ASSERT_EQ(t->emitted() - emitted0, verdict ? 0u : 1u);
          if (!verdict) {
            const auto rec = t->tail(1).front();
            EXPECT_EQ(rec.kind,
                      static_cast<std::uint16_t>(obs::trace_kind::violation));
            EXPECT_EQ(rec.a, 1u);
          }
        }
        const auto report = c.check();
        ASSERT_EQ(verdict, report.legal())
            << (report.legal() ? std::string("legal report")
                               : report.violations.front());
        ASSERT_EQ(be.legal(), verdict);
        ++(verdict ? legal_states : illegal_states);
      }
      EXPECT_GT(legal_states, 0u);
      EXPECT_GT(illegal_states, 0u);
    }
  }
}

// The verdict and the report cost the same few allocations on a legal
// tree, whatever its size: no per-peer heights, no hashed reachability
// set, no formatted text.
TEST(Checker, LegalAndCheckAllocateAConstantOnALegalTree) {
  std::vector<std::uint64_t> counts;  // legal(), check() at 256, at 2048
  for (const std::size_t n : {256, 2048}) {
    engine::overlay_backend_config bc;
    bc.net.seed = 5;
    drtree_backend be(bc);
    ASSERT_NO_FATAL_FAILURE(grow_legal(be, 5, n));
    const checker c(be.overlay());
    const auto a0 = g_allocations.load();
    const bool verdict = c.legal();
    const auto a1 = g_allocations.load();
    const auto report = c.check();
    const auto a2 = g_allocations.load();
    ASSERT_TRUE(verdict);
    ASSERT_TRUE(report.legal());
    ASSERT_EQ(report.live_peers, n);
    counts.push_back(a1 - a0);
    counts.push_back(a2 - a1);
  }
  SCOPED_TRACE("legal/check allocations: 256 peers " +
               std::to_string(counts[0]) + "/" + std::to_string(counts[1]) +
               ", 2048 peers " + std::to_string(counts[2]) + "/" +
               std::to_string(counts[3]));
  EXPECT_LE(counts[0], 4u);
  for (const auto k : counts) EXPECT_EQ(k, counts[0]);
}

// arena.h's promise: steady-state stabilization stops allocating.  A
// warm, quiescent round at 2048 peers runs every peer's pass (stride 1)
// and CHECK_CHILDREN on every interior instance, and still allocates
// fewer than 100 times.
TEST(Arena, QuiescentRoundStopsAllocating) {
  engine::overlay_backend_config bc;
  bc.net.seed = 5;
  drtree_backend be(bc);
  ASSERT_NO_FATAL_FAILURE(grow_legal(be, 5, 2048));
  for (int warm = 0; warm < 3; ++warm) be.step_round();
  ASSERT_TRUE(be.legal());
  const auto a0 = g_allocations.load();
  be.step_round();
  const auto allocations = g_allocations.load() - a0;
  ASSERT_TRUE(be.legal());
  EXPECT_LT(allocations, 100u);
}

}  // namespace
}  // namespace drt::overlay
