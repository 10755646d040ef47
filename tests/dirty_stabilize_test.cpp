// Dirty-set stabilization (DESIGN.md §11): scheduling must never change
// *what* the protocol computes, only *when* passes run.  "Full" below is
// the default sweep_stride 1, "dirty" is sweep_stride 16.
//
//   * full stays bit-for-bit the paper's periodic schedule — the
//     recorder digests of the pre-PR goldens pin that;
//   * dirty produces the same delivery/accuracy metrics on canned
//     scenarios (metric equality, not digest equality: message counts
//     legitimately drop when clean peers skip their passes);
//   * silent corruption — state scrambled behind the scheduler's back,
//     with no dirty mark — is still found and repaired, because the
//     background sweep visits every peer within sweep_stride ticks;
//   * a quiescent overlay's backlog drains to zero and its pass count
//     collapses by ~sweep_stride, which is the whole point.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "drtree/checker.h"
#include "drtree/corruptor.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"

namespace drt::overlay {
namespace {

using engine::drtree_backend;
using engine::scenario_runner;
using spatial::kNoPeer;
using spatial::peer_id;

/// A populated DR-tree behind the engine interface, with white-box
/// access for fault staging (same rig as stabilizer_test).
struct rig {
  explicit rig(engine::overlay_backend_config config)
      : backend(std::make_unique<drtree_backend>(config)),
        runner(std::make_unique<scenario_runner>(*backend)) {}

  void populate(std::size_t n) { runner->populate(n); }
  int converge(int max_rounds = 80) { return runner->converge(max_rounds); }
  int step_rounds(int rounds) { return runner->step_rounds(rounds); }
  bool legal() const { return backend->legal(); }
  dr_overlay& overlay() { return backend->overlay(); }

  std::unique_ptr<drtree_backend> backend;
  std::unique_ptr<scenario_runner> runner;
};

/// sweep_stride of the paper's schedule (the default) and of the
/// dirty-set schedule these tests exercise.
constexpr std::size_t kFullStride = 1;
constexpr std::size_t kDirtyStride = 16;

engine::overlay_backend_config mode_config(std::size_t stride,
                                           std::uint64_t seed) {
  engine::overlay_backend_config bc;
  bc.net.seed = seed;
  bc.dr.sweep_stride = stride;
  return bc;
}

peer_id interior_non_root(rig& r) {
  const auto root = r.overlay().current_root();
  for (const auto p : r.overlay().live_peers()) {
    if (p != root && r.overlay().peer(p).top() > 0) return p;
  }
  return kNoPeer;
}

// ------------------------------------------------- full-mode golden pin

engine::metrics_recorder run_mode(const engine::scenario& sc,
                                  std::size_t stride,
                                  engine::overlay_backend_config bc) {
  bc.dr.sweep_stride = stride;
  drtree_backend be(engine::configured_for(sc, bc));
  scenario_runner runner(be);
  return runner.run(sc);
}

// The same pre-PR goldens net_test pins: stride 1 must stay the default
// AND keep the paper's periodic schedule bit-for-bit.
constexpr std::uint64_t kGoldenRollingChurn = 2727552842464279799ull;
constexpr std::uint64_t kGoldenFlashCrowd = 2725230533165199554ull;
constexpr std::uint64_t kGoldenMassacreLossy = 12904214689126478679ull;

TEST(DirtyStabilize, FullModeKeepsPrePrGoldenDigests) {
  engine::overlay_backend_config bc;
  bc.net.seed = 41;
  // Explicitly stride 1 (also the default — a changed default would be
  // a silent behavior change for every existing config).
  ASSERT_EQ(engine::overlay_backend_config{}.dr.sweep_stride, kFullStride);
  EXPECT_EQ(run_mode(engine::canned::rolling_churn(48, 3, 12, 7),
                     kFullStride, bc)
                .digest(),
            kGoldenRollingChurn);
  EXPECT_EQ(run_mode(engine::canned::flash_crowd(24, 96, 7), kFullStride,
                     bc)
                .digest(),
            kGoldenFlashCrowd);

  auto lossy = bc;
  lossy.net.message_loss = 0.05;
  EXPECT_EQ(run_mode(engine::canned::massacre_then_heal(60, 1.0 / 3, 0.5, 7),
                     kFullStride, lossy)
                .digest(),
            kGoldenMassacreLossy);
}

// --------------------------------------------- dirty-vs-full metric parity

// `exact_accuracy`: compare FP/delivery counts cell-for-cell.  That holds
// when repairs are driven entirely by marked peers (joins, controlled
// leaves) so both strides walk the identical repair schedule.  After crash
// waves the *interleaving* differs — at stride 1 unmarked bystanders run
// passes mid-repair and may compact earlier — so the trees can converge
// to different (both legal) shapes; there only the ground-truth columns
// and zero-FN are invariants.
void expect_metric_parity(const engine::scenario& sc, bool exact_accuracy) {
  engine::overlay_backend_config bc;
  bc.net.seed = 41;
  const auto full = run_mode(sc, kFullStride, bc);
  const auto dirty = run_mode(sc, kDirtyStride, bc);

  ASSERT_EQ(full.phases().size(), dirty.phases().size()) << sc.name;
  for (std::size_t i = 0; i < full.phases().size(); ++i) {
    const auto& f = full.phases()[i];
    const auto& d = dirty.phases()[i];
    SCOPED_TRACE(sc.name + " phase " + std::to_string(i) + " (" + f.phase +
                 ")");
    ASSERT_EQ(f.phase, d.phase);
    // Population evolution and ground truth must be identical; message
    // and visited counts legitimately differ (that is the optimization).
    EXPECT_EQ(f.population, d.population);
    EXPECT_EQ(f.events, d.events);
    EXPECT_EQ(f.interested, d.interested);
    EXPECT_EQ(f.false_negatives, d.false_negatives);
    EXPECT_EQ(d.false_negatives, 0u);
    if (exact_accuracy) {
      EXPECT_EQ(f.deliveries, d.deliveries);
      EXPECT_EQ(f.false_positives, d.false_positives);
    }
    if (f.phase == "converge_until_legal") {
      EXPECT_GE(f.rounds, 0);
      EXPECT_GE(d.rounds, 0);
    }
  }
  // The scheduler actually did something different: clean peers skipped.
  std::uint64_t full_visited = 0, dirty_visited = 0, dirty_skipped = 0;
  for (const auto& m : full.phases()) full_visited += m.stabilize_visited;
  for (const auto& m : dirty.phases()) {
    dirty_visited += m.stabilize_visited;
    dirty_skipped += m.stabilize_skipped;
  }
  EXPECT_LT(dirty_visited, full_visited) << sc.name;
  EXPECT_GT(dirty_skipped, 0u) << sc.name;
}

TEST(DirtyStabilize, MetricsMatchFullModeOnRollingChurn) {
  expect_metric_parity(engine::canned::rolling_churn(48, 3, 12, 7), true);
}

TEST(DirtyStabilize, MetricsMatchFullModeOnFlashCrowd) {
  expect_metric_parity(engine::canned::flash_crowd(24, 96, 7), true);
}

TEST(DirtyStabilize, MetricsMatchFullModeOnMassacre) {
  expect_metric_parity(engine::canned::massacre_then_heal(60, 1.0 / 3, 0.5, 7),
                       false);
}

// ------------------------------------------- silent-corruption soundness

// Corruption kinds staged through the corruptor's targeted primitives,
// all of which scribble on arena state directly — no mark_dirty, no
// message, nothing the dirty-set scheduler can observe.  Soundness then
// rests entirely on the background sweep: every peer fires within
// sweep_stride ticks, so the fault is found and repair cascades (the
// repair traffic itself marks, so follow-up work is scheduled normally).
enum class silent_fault { leaf_mbr, parent, children, flag };

const char* fault_name(silent_fault f) {
  switch (f) {
    case silent_fault::leaf_mbr: return "leaf_mbr";
    case silent_fault::parent: return "parent";
    case silent_fault::children: return "children";
    case silent_fault::flag: return "flag";
  }
  return "?";
}

TEST(DirtyStabilize, SilentCorruptionRepairedByBackgroundSweep) {
  const silent_fault kinds[] = {silent_fault::leaf_mbr, silent_fault::parent,
                                silent_fault::children, silent_fault::flag};
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    for (const auto kind : kinds) {
      SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " fault " +
                   fault_name(kind));
      rig r(mode_config(kDirtyStride, seed));
      r.populate(36);
      ASSERT_GE(r.converge(), 0);
      // Drain the post-join backlog so the corruption is the only
      // outstanding fault when it lands.
      const int stride = static_cast<int>(kDirtyStride);
      r.step_rounds(stride);

      corruptor c(r.overlay(), seed * 131 + static_cast<std::uint64_t>(kind));
      switch (kind) {
        case silent_fault::leaf_mbr: {
          const auto victim = r.overlay().live_peers()[seed % 30];
          c.scramble_mbr(victim, 0);
          break;
        }
        case silent_fault::parent: {
          const auto victim = interior_non_root(r);
          ASSERT_NE(victim, kNoPeer);
          c.scramble_parent(victim, r.overlay().peer(victim).top());
          break;
        }
        case silent_fault::children: {
          const auto victim = interior_non_root(r);
          ASSERT_NE(victim, kNoPeer);
          c.scramble_children(victim, r.overlay().peer(victim).top());
          break;
        }
        case silent_fault::flag: {
          const auto victim = interior_non_root(r);
          ASSERT_NE(victim, kNoPeer);
          c.flip_underloaded(victim, r.overlay().peer(victim).top());
          break;
        }
      }
      if (r.legal()) continue;  // the scramble happened to be benign

      // The bound: one sweep_stride window to *find* the fault, one for
      // chained discoveries (e.g. orphaned children noticing their own
      // broken parent link), plus repair rounds proper.
      const int rounds = r.converge(3 * stride + 60);
      EXPECT_GE(rounds, 0) << "silent corruption never repaired";
      const auto report = checker(r.overlay()).check();
      EXPECT_TRUE(report.legal())
          << (report.violations.empty() ? "?" : report.violations.front());
    }
  }
}

// ------------------------------------------------ quiescence white-box

TEST(DirtyStabilize, QuiescentBacklogDrainsAndPassCountCollapses) {
  const std::uint64_t seed = 43;
  rig full(mode_config(kFullStride, seed));
  rig dirty(mode_config(kDirtyStride, seed));
  for (rig* r : {&full, &dirty}) {
    r->populate(48);
    ASSERT_GE(r->converge(), 0);
    // One full sweep window drains join-time marks.
    r->step_rounds(static_cast<int>(kDirtyStride));
  }
  EXPECT_EQ(dirty.overlay().dirty_pending(), 0u)
      << "backlog did not drain at quiescence";

  const auto full0 = full.backend->counters();
  const auto dirty0 = dirty.backend->counters();
  const int window = 32;
  full.step_rounds(window);
  dirty.step_rounds(window);
  const auto full_visited =
      full.backend->counters().stabilize_visited - full0.stabilize_visited;
  const auto dirty_visited =
      dirty.backend->counters().stabilize_visited - dirty0.stabilize_visited;
  const auto dirty_skipped =
      dirty.backend->counters().stabilize_skipped - dirty0.stabilize_skipped;

  // Stride 1 visits everyone every round; dirty visits ~population/K
  // per round (background sweep only).  4x is a loose floor on the
  // K=16 design ratio.
  EXPECT_EQ(full_visited, 48u * window);
  EXPECT_GT(dirty_visited, 0u);  // the sweep does keep scanning
  EXPECT_LT(dirty_visited * 4, full_visited)
      << "dirty=" << dirty_visited << " full=" << full_visited;
  EXPECT_EQ(dirty_visited + dirty_skipped, full_visited)
      << "skipped accounting must cover exactly the passes not run";
  EXPECT_EQ(dirty.overlay().dirty_pending(), 0u);
  EXPECT_TRUE(full.legal());
  EXPECT_TRUE(dirty.legal());
}

// The dirty set is kept at every stride: stride 1 never reads it to skip
// a pass, but drtd's /metrics backlog gauge does.
TEST(DirtyStabilize, ChurnMarksThenQuiesces) {
  for (const auto stride : {kFullStride, kDirtyStride}) {
    SCOPED_TRACE("sweep_stride " + std::to_string(stride));
    rig r(mode_config(stride, 47));
    r.populate(40);
    ASSERT_GE(r.converge(), 0);
    r.step_rounds(static_cast<int>(kDirtyStride));
    ASSERT_EQ(r.overlay().dirty_pending(), 0u);

    // A crash marks the dead peer's neighborhood: backlog becomes
    // nonzero without any stabilization having run yet.
    const auto victim = interior_non_root(r);
    ASSERT_NE(victim, kNoPeer);
    r.overlay().crash(victim);
    EXPECT_GT(r.overlay().dirty_pending(), 0u)
        << "crash did not mark the survivors that must repair around it";

    ASSERT_GE(r.converge(120), 0);
    r.step_rounds(static_cast<int>(kDirtyStride));
    EXPECT_EQ(r.overlay().dirty_pending(), 0u)
        << "backlog did not re-drain after repair";
    EXPECT_TRUE(r.legal());
  }
}

// ------------------------------------------------- sharded-kernel skip

TEST(DirtyStabilize, ShardedDirtyQuiescesPerShard) {
  engine::drtree_backend be(mode_config(kDirtyStride, 53), 4);
  scenario_runner runner(be);
  runner.populate(64);
  ASSERT_GE(runner.converge(120), 0);
  runner.step_rounds(static_cast<int>(kDirtyStride));
  ASSERT_TRUE(be.legal());
  for (std::size_t s = 0; s < be.shards(); ++s) {
    EXPECT_EQ(be.overlay(s).dirty_pending(), 0u) << "shard " << s;
  }
  // The quiescent fleet's pass count collapses: per round only the
  // background sweep (population / sweep_stride) plus each shard's
  // always-on root runs, instead of the whole population.
  const auto v0 = be.counters().stabilize_visited;
  const int window = 16;
  runner.step_rounds(window);
  const auto visited = be.counters().stabilize_visited - v0;
  const auto full_equiv =
      static_cast<std::uint64_t>(be.population()) * window;
  EXPECT_GT(visited, 0u);
  EXPECT_LT(visited * 4, full_equiv)
      << "visited=" << visited << " full-equivalent=" << full_equiv;
}

}  // namespace
}  // namespace drt::overlay
