// Stabilization-module ablation on the engine API: each CHECK_* module
// of Figs. 10-14 is *necessary* — with the module disabled, the fault
// class it repairs persists forever; with it enabled, the same fault
// converges.  Also covers the efficient-leave handoff variant and peer
// restart with stale state (the transient-fault model of §2.1).
//
// The populated, converged overlays come from engine::scenario_runner
// over a drtree_backend; the targeted faults are staged white-box
// through the backend's overlay accessor.
#include <gtest/gtest.h>

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

engine::overlay_backend_config config_with(stabilizer_switches sw,
                                           std::uint64_t seed) {
  engine::overlay_backend_config bc;
  bc.net.seed = seed;
  bc.dr.stabilizers = sw;
  return bc;
}

peer_id interior_non_root(const dr_overlay& ov) {
  const auto root = ov.current_root();
  for (const auto p : ov.live_peers()) {
    if (p != root && ov.peer(p).top() > 0) return p;
  }
  return kNoPeer;
}

TEST(StabilizerAblation, CheckMbrIsNecessary) {
  // Interior MBRs are also recomputed by CHECK_CHILDREN (by design:
  // redundant repair), so the *isolated* fault class of Fig. 10 is a
  // corrupted LEAF MBR — only "if Is_Leaf(p,l): mbr <- filter" fixes it.
  auto sw = stabilizer_switches{};
  sw.check_mbr = false;
  drtree_backend be(config_with(sw, 3));
  scenario_runner runner(be);
  runner.populate(30);
  ASSERT_GE(runner.converge(80), 0);

  corruptor c(be.overlay(), 7);
  const auto victim = be.overlay().live_peers()[5];
  c.scramble_mbr(victim, 0);  // leaf MBR != filter
  if (be.overlay().peer(victim).inst(0).mbr ==
      be.overlay().peer(victim).filter()) {
    c.scramble_mbr(victim, 0);  // astronomically unlikely collision
  }
  ASSERT_FALSE(be.legal());
  EXPECT_EQ(runner.converge(40), -1)
      << "leaf MBR corruption repaired with CHECK_MBR disabled?";

  // Control: the full stabilizer fixes the same fault class.
  drtree_backend control(config_with(stabilizer_switches{}, 3));
  scenario_runner control_runner(control);
  control_runner.populate(30);
  ASSERT_GE(control_runner.converge(80), 0);
  corruptor c2(control.overlay(), 7);
  control.overlay().peer(control.overlay().live_peers()[5]).inst(0).mbr =
      geo::make_rect2(1, 2, 3, 4);
  ASSERT_FALSE(control.legal());
  EXPECT_GE(control_runner.converge(40), 0);
}

TEST(StabilizerAblation, CheckParentIsNecessary) {
  // A *dead or missing* parent link is redundantly repaired by the root
  // probes (a broken-chain peer acts as a fragment root when a probe
  // passes through it).  The isolated Fig. 11 fault is a parent pointer
  // at a live peer that does NOT list the victim: probes route through
  // it transparently, the old parent discards the victim via
  // CHECK_CHILDREN, and only "if p not in C(parent): rejoin" recovers it.
  auto sw = stabilizer_switches{};
  sw.check_parent = false;
  drtree_backend be(config_with(sw, 5));
  scenario_runner runner(be);
  runner.populate(30);
  ASSERT_GE(runner.converge(80), 0);

  const auto victim = interior_non_root(be.overlay());
  ASSERT_NE(victim, kNoPeer);
  auto& victim_peer = be.overlay().peer(victim);
  auto& ins = victim_peer.inst(victim_peer.top());
  // Pick a live impostor that is neither the victim nor its real parent.
  spatial::peer_id impostor = kNoPeer;
  for (const auto p : be.overlay().live_peers()) {
    if (p != victim && p != ins.parent) {
      impostor = p;
      break;
    }
  }
  ASSERT_NE(impostor, kNoPeer);
  ins.parent = impostor;
  ASSERT_FALSE(be.legal());
  EXPECT_EQ(runner.converge(40), -1)
      << "orphan rejoined with CHECK_PARENT disabled?";

  // Control: with CHECK_PARENT enabled the identical fault heals.
  drtree_backend control(config_with(stabilizer_switches{}, 5));
  scenario_runner control_runner(control);
  control_runner.populate(30);
  ASSERT_GE(control_runner.converge(80), 0);
  const auto victim2 = interior_non_root(control.overlay());
  ASSERT_NE(victim2, kNoPeer);
  auto& vp2 = control.overlay().peer(victim2);
  auto& ins2 = vp2.inst(vp2.top());
  spatial::peer_id impostor2 = kNoPeer;
  for (const auto p : control.overlay().live_peers()) {
    if (p != victim2 && p != ins2.parent) {
      impostor2 = p;
      break;
    }
  }
  ins2.parent = impostor2;
  ASSERT_FALSE(control.legal());
  EXPECT_GE(control_runner.converge(60), 0);
}

TEST(StabilizerAblation, CheckChildrenIsNecessary) {
  auto sw = stabilizer_switches{};
  sw.check_children = false;
  drtree_backend be(config_with(sw, 7));
  scenario_runner runner(be);
  runner.populate(30);
  ASSERT_GE(runner.converge(80), 0);

  // Adopt a stranger: the stranger's parent pointer does not change, so
  // only CHECK_CHILDREN ("simply discards the child") can repair it.
  const auto root = be.overlay().current_root();
  const auto victim = interior_non_root(be.overlay());
  ASSERT_NE(victim, kNoPeer);
  auto& victim_peer = be.overlay().peer(victim);
  auto& ins = victim_peer.inst(victim_peer.top());
  ins.add_child(root);  // the root is never a legitimate child here
  ASSERT_FALSE(be.legal());
  EXPECT_EQ(runner.converge(40), -1)
      << "stranger child discarded with CHECK_CHILDREN disabled?";
}

TEST(StabilizerAblation, CheckStructureIsNecessary) {
  auto sw = stabilizer_switches{};
  sw.check_structure = false;
  auto bc = config_with(sw, 11);
  bc.dr.min_children = 3;
  bc.dr.max_children = 6;
  drtree_backend be(bc);
  scenario_runner runner(be);
  runner.populate(60);
  ASSERT_GE(runner.converge(80), 0);

  // Shrink some interior node below m by discarding children: without
  // compaction/redistribution nothing restores the m bound (joins could,
  // but none arrive).
  const auto root = be.overlay().current_root();
  peer_id victim = kNoPeer;
  for (const auto p : be.overlay().live_peers()) {
    const auto& peer = be.overlay().peer(p);
    if (p == root || peer.top() == 0) continue;
    const auto& ins = peer.inst(peer.top());
    if (ins.children.size() >= 4) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  // Crash children of the victim until it is underloaded.
  auto& victim_peer = be.overlay().peer(victim);
  const auto h = victim_peer.top();
  std::size_t crashed = 0;
  for (const auto c : victim_peer.inst(h).children) {
    if (c == victim) continue;
    if (victim_peer.inst(h).children.size() - crashed <= 2) break;
    be.overlay().crash(c);
    ++crashed;
  }
  ASSERT_GT(crashed, 0u);
  EXPECT_EQ(runner.converge(40), -1)
      << "m bound restored with CHECK_STRUCTURE disabled?";

  // Control: full stabilizer handles the identical scenario.
  auto bc2 = config_with(stabilizer_switches{}, 11);
  bc2.dr.min_children = 3;
  bc2.dr.max_children = 6;
  drtree_backend control(bc2);
  scenario_runner control_runner(control);
  control_runner.populate(60);
  ASSERT_GE(control_runner.converge(80), 0);
  auto live = control.overlay().live_peers();
  for (std::size_t i = 0; i < 6; ++i) {
    control.overlay().crash(live[i * 7 % live.size()]);
  }
  EXPECT_GE(control_runner.converge(200), 0);
}

// Hand-build a three-peer tree where a *small*-filter peer is the root
// and a big-filter peer sits below it — the Fig. 13 violation ("the child
// of a node may better cover the node sub-tree than the node itself").
void stage_cover_violation(dr_overlay& ov, spatial::peer_id a,
                           spatial::peer_id b, spatial::peer_id c) {
  for (const auto p : {a, b, c}) {
    auto& peer = ov.peer(p);
    while (peer.top() > 0) peer.erase_inst(peer.top());
  }
  auto& ap = ov.peer(a);
  auto& root = ap.ensure_inst(1);
  root.parent = a;
  root.children = {a, b, c};
  root.mbr = join(join(ov.peer(a).filter(), ov.peer(b).filter()),
                  ov.peer(c).filter());
  root.underloaded = false;
  for (const auto p : {a, b, c}) {
    auto& leaf = ov.peer(p).inst(0);
    leaf.parent = a;
    leaf.mbr = ov.peer(p).filter();
  }
}

TEST(StabilizerAblation, CheckCoverIsNecessary) {
  auto sw = stabilizer_switches{};
  sw.check_cover = false;
  auto bc = config_with(sw, 13);
  bc.dr.min_children = 2;
  bc.dr.max_children = 4;
  drtree_backend be(bc);
  scenario_runner runner(be);
  const auto a = runner.add(geo::make_rect2(0, 0, 10, 10));     // small: root
  const auto b = runner.add(geo::make_rect2(20, 0, 30, 10));    // small
  const auto c = runner.add(geo::make_rect2(0, 0, 900, 900));   // big: child
  be.overlay().settle();
  stage_cover_violation(be.overlay(), a, b, c);
  ASSERT_FALSE(be.legal());  // "child c offers a better cover"
  EXPECT_EQ(runner.converge(40), -1)
      << "cover violation repaired with CHECK_COVER disabled?";

  // Control: with CHECK_COVER enabled the big filter is promoted.
  auto bc2 = config_with(stabilizer_switches{}, 13);
  bc2.dr.min_children = 2;
  bc2.dr.max_children = 4;
  drtree_backend control(bc2);
  scenario_runner control_runner(control);
  const auto a2 = control_runner.add(geo::make_rect2(0, 0, 10, 10));
  const auto b2 = control_runner.add(geo::make_rect2(20, 0, 30, 10));
  const auto c2 = control_runner.add(geo::make_rect2(0, 0, 900, 900));
  control.overlay().settle();
  stage_cover_violation(control.overlay(), a2, b2, c2);
  ASSERT_FALSE(control.legal());
  ASSERT_GE(control_runner.converge(40), 0);
  EXPECT_EQ(control.overlay().current_root(), c2);  // promoted
}

TEST(EfficientLeave, HandoffKeepsStructureLegalImmediately) {
  auto bc = config_with(stabilizer_switches{}, 17);
  bc.dr.efficient_leave = true;
  drtree_backend be(bc);
  scenario_runner runner(be);
  runner.populate(50);
  ASSERT_GE(runner.converge(80), 0);

  // Remove interior peers one by one; with handoff the structure should
  // be repairable within very few rounds each time.
  for (int i = 0; i < 10; ++i) {
    const auto victim = interior_non_root(be.overlay());
    if (victim == kNoPeer) break;
    ASSERT_TRUE(be.unsubscribe(victim));
    const int rounds = runner.converge(40);
    ASSERT_GE(rounds, 0) << "handoff leave " << i << " diverged";
    EXPECT_LE(rounds, 6) << "handoff leave " << i << " needed " << rounds;
  }
  EXPECT_TRUE(be.legal());
}

TEST(EfficientLeave, RootHandoffElectsNewRoot) {
  auto bc = config_with(stabilizer_switches{}, 19);
  bc.dr.efficient_leave = true;
  drtree_backend be(bc);
  scenario_runner runner(be);
  runner.populate(30);
  ASSERT_GE(runner.converge(80), 0);
  const auto root = be.overlay().current_root();
  ASSERT_TRUE(be.unsubscribe(root));
  ASSERT_GE(runner.converge(60), 0);
  EXPECT_TRUE(be.legal());
  EXPECT_NE(be.overlay().current_root(), kNoPeer);
  EXPECT_NE(be.overlay().current_root(), root);
}

TEST(EfficientLeave, CheaperThanFig9Baseline) {
  auto run = [](bool handoff) {
    auto bc = config_with(stabilizer_switches{}, 23);
    bc.dr.efficient_leave = handoff;
    drtree_backend be(bc);
  scenario_runner runner(be);
    runner.populate(60);
    runner.converge(80);
    auto live = be.overlay().live_peers();
    runner.rng().shuffle(live);
    const auto m0 = be.counters().messages;
    for (int i = 0; i < 15; ++i) {
      if (be.alive(live[i])) {
        be.unsubscribe(live[i]);
      }
    }
    runner.converge(300);
    return be.counters().messages - m0;
  };
  const auto baseline = run(false);
  const auto handoff = run(true);
  EXPECT_LT(handoff, baseline)
      << "handoff=" << handoff << " baseline=" << baseline;
}

TEST(Restart, PeerRestartingWithStaleStateConverges) {
  // §2.1: processes "can fail temporarily (transient faults)".  A
  // restarted peer resumes with its pre-crash state, which is stale by
  // then; stabilization must absorb it.  Declaratively: crash_burst,
  // heal, restart_burst, heal again.
  engine::overlay_backend_config bc;
  bc.net.seed = 29;
  drtree_backend backend(bc);
  scenario_runner runner(backend);
  const auto rec = runner.run(engine::scenario::make("stale_restart")
                                  .populate(40)
                                  .converge(80)
                                  .crash_count(8)
                                  .converge(200)
                                  .restart_burst(8)
                                  .converge(200)
                                  .build());
  for (const auto& m : rec.phases()) {
    if (m.phase == "converge_until_legal") {
      ASSERT_GE(m.rounds, 0) << "phase " << m.index;
    }
  }
  const auto* restarts = rec.last("restart_burst");
  ASSERT_NE(restarts, nullptr);
  EXPECT_EQ(restarts->restarts, 8u);
  const auto report = checker(backend.overlay()).check();
  EXPECT_TRUE(report.legal()) << (report.violations.empty()
                                      ? "?"
                                      : report.violations.front());
  EXPECT_EQ(report.live_peers, 40u);
  EXPECT_EQ(report.reachable, 40u);
}

}  // namespace
}  // namespace drt::overlay
