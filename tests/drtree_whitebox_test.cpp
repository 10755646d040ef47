// White-box tests of individual protocol modules: each CHECK_* routine is
// driven directly against hand-crafted instance states, verifying the
// exact repair the pseudo-code of Figs. 10-14 specifies.  Also covers the
// DOT renderers and per-instance data structures.
#include <gtest/gtest.h>

#include "drtree/checker.h"
#include "drtree/dot.h"
#include "drtree/overlay.h"
#include "engine/backends.h"
#include "engine/runner.h"

namespace drt::overlay {
namespace {

using engine::drtree_backend;
using engine::scenario_runner;
using geo::make_rect2;
using spatial::kNoPeer;
using spatial::peer_id;

engine::overlay_backend_config quiet_config(std::uint64_t seed = 1) {
  engine::overlay_backend_config bc;
  bc.net.seed = seed;
  bc.dr.min_children = 2;
  bc.dr.max_children = 4;
  return bc;
}

// ------------------------------------------------------------- instance

TEST(Instance, ChildSetOperations) {
  instance ins;
  EXPECT_FALSE(ins.has_child(3));
  ins.add_child(3);
  ins.add_child(5);
  ins.add_child(3);  // duplicate ignored
  EXPECT_EQ(ins.children.size(), 2u);
  EXPECT_TRUE(ins.has_child(3));
  EXPECT_TRUE(ins.remove_child(3));
  EXPECT_FALSE(ins.remove_child(3));
  EXPECT_EQ(ins.children.size(), 1u);
}

// ------------------------------------------------------------ check_mbr

TEST(CheckMbr, LeafRestoresFilter) {
  drtree_backend be(quiet_config(3));
  scenario_runner runner(be);
  const auto a = runner.add(make_rect2(0, 0, 10, 10));
  auto& peer = be.overlay().peer(a);
  peer.inst(0).mbr = make_rect2(5, 5, 6, 6);
  peer.check_mbr(0);
  EXPECT_EQ(peer.inst(0).mbr, peer.filter());
}

TEST(CheckMbr, InteriorRecomputesUnionOfChildren) {
  drtree_backend be(quiet_config(5));
  scenario_runner runner(be);
  const auto a = runner.add(make_rect2(0, 0, 10, 10));
  const auto b = runner.add(make_rect2(20, 20, 500, 500));
  be.overlay().settle();
  runner.converge(80);
  const auto root = be.overlay().current_root();
  ASSERT_EQ(root, b);  // larger coverage wins the election
  auto& root_peer = be.overlay().peer(root);
  root_peer.inst(1).mbr = make_rect2(0, 0, 1, 1);  // corrupt
  root_peer.check_mbr(1);
  EXPECT_EQ(root_peer.inst(1).mbr,
            join(be.overlay().peer(a).filter(),
                 be.overlay().peer(b).filter()));
}

// --------------------------------------------------------- check_parent

TEST(CheckParent, NonTopInstanceRepairsOwnChainLocally) {
  drtree_backend be(quiet_config(7));
  scenario_runner runner(be);
  // Build until some peer owns at least heights 0..2.
  peer_id deep = kNoPeer;
  for (int n = 0; n < 40 && deep == kNoPeer; ++n) {
    runner.populate(1);
    runner.converge(80);
    for (const auto p : be.overlay().live_peers()) {
      if (be.overlay().peer(p).top() >= 2) {
        deep = p;
        break;
      }
    }
  }
  ASSERT_NE(deep, kNoPeer);
  auto& peer = be.overlay().peer(deep);
  // Corrupt the own-chain parent pointer of a non-top instance.
  peer.inst(0).parent = kNoPeer;
  peer.check_parent(0);
  EXPECT_EQ(peer.inst(0).parent, deep);
  // And the membership in its own children set is restored.
  EXPECT_TRUE(peer.inst(1).has_child(deep));
}

TEST(CheckParent, UnlistedTopRejoins) {
  drtree_backend be(quiet_config(11));
  scenario_runner runner(be);
  runner.populate(12);
  runner.converge(80);
  const auto root = be.overlay().current_root();
  peer_id victim = kNoPeer;
  for (const auto p : be.overlay().live_peers()) {
    if (p != root && be.overlay().peer(p).top() == 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  auto& vp = be.overlay().peer(victim);
  const auto old_parent = vp.inst(0).parent;
  // Remove the victim from its parent's children set (one-sided fault).
  be.overlay().peer(old_parent).inst(1).remove_child(victim);
  vp.check_parent(0);
  // Fig. 11: "the node sets itself as parent and initiates a join".
  EXPECT_EQ(vp.inst(0).parent, victim);
  // The join probe is in flight; draining re-attaches the victim.
  be.overlay().settle();
  ASSERT_GE(runner.converge(60), 0);
  EXPECT_TRUE(be.legal());
}

// ------------------------------------------------------- check_children

TEST(CheckChildren, DiscardsDeadAndForeignChildren) {
  drtree_backend be(quiet_config(13));
  scenario_runner runner(be);
  runner.populate(12);
  runner.converge(80);
  const auto root = be.overlay().current_root();
  auto& rp = be.overlay().peer(root);
  const auto h = rp.top();
  const auto before = rp.inst(h).children.size();

  // Kill one real child and adopt one foreign child.
  peer_id dead_child = kNoPeer;
  for (const auto c : rp.inst(h).children) {
    if (c != root) {
      dead_child = c;
      break;
    }
  }
  ASSERT_NE(dead_child, kNoPeer);
  be.overlay().crash(dead_child);
  // Foreign: a peer whose parent is someone else.
  peer_id foreign = kNoPeer;
  for (const auto p : be.overlay().live_peers()) {
    if (p != root && !rp.inst(h).has_child(p)) {
      foreign = p;
      break;
    }
  }
  if (foreign != kNoPeer) rp.inst(h).add_child(foreign);

  rp.check_children(h);
  EXPECT_FALSE(rp.inst(h).has_child(dead_child));
  if (foreign != kNoPeer) {
    EXPECT_FALSE(rp.inst(h).has_child(foreign));
  }
  EXPECT_LE(rp.inst(h).children.size(), before);
  // The underloaded flag reflects the new size.
  EXPECT_EQ(rp.inst(h).underloaded,
            rp.inst(h).children.size() < be.overlay().config().min_children);
}

TEST(CheckChildren, ChildlessInteriorDissolves) {
  drtree_backend be(quiet_config(17));
  scenario_runner runner(be);
  runner.populate(8);
  runner.converge(80);
  const auto root = be.overlay().current_root();
  auto& rp = be.overlay().peer(root);
  const auto h = rp.top();
  ASSERT_GT(h, 0u);
  rp.inst(h).children.clear();
  rp.check_children(h);
  EXPECT_FALSE(rp.has_instance(h));
}

TEST(CheckChildren, SingletonRootDemotesItself) {
  drtree_backend be(quiet_config(19));
  scenario_runner runner(be);
  const auto a = runner.add(make_rect2(0, 0, 50, 50));
  const auto b = runner.add(make_rect2(10, 10, 20, 20));
  be.overlay().settle();
  runner.converge(80);
  const auto root = be.overlay().current_root();
  ASSERT_EQ(root, a);
  auto& rp = be.overlay().peer(root);
  // Remove the non-self child: the root instance holds only itself.
  rp.inst(1).remove_child(b);
  rp.check_children(1);
  EXPECT_FALSE(rp.has_instance(1));  // demoted to a plain leaf root
  EXPECT_EQ(rp.inst(0).parent, root);
}

// ----------------------------------------------------------- check_cover

TEST(CheckCover, PromotesBetterCoveringChild) {
  drtree_backend be(quiet_config(23));
  scenario_runner runner(be);
  const auto small = static_cast<peer_id>(runner.add(make_rect2(0, 0, 10, 10)));
  const auto big = static_cast<peer_id>(runner.add(make_rect2(0, 0, 800, 800)));
  be.overlay().settle();
  runner.converge(80);
  ASSERT_EQ(be.overlay().current_root(), big);

  // Manually invert the hierarchy: small leads, big beneath.
  auto& bp = be.overlay().peer(big);
  auto& sp = be.overlay().peer(small);
  bp.erase_inst(1);
  auto& si = sp.ensure_inst(1);
  si.parent = small;
  si.children = {small, big};
  si.mbr = join(sp.filter(), bp.filter());
  si.underloaded = false;
  sp.inst(0).parent = small;
  bp.inst(0).parent = small;

  sp.check_cover(1);  // Fig. 13 fires: big covers better
  EXPECT_TRUE(bp.is_root());
  EXPECT_EQ(sp.top(), 0u);
  EXPECT_TRUE(bp.inst(1).has_child(small));
  EXPECT_TRUE(bp.inst(1).has_child(big));
}

// ------------------------------------------------------------------ dot

TEST(Dot, RendersInstanceAndPeerGraphs) {
  drtree_backend be(quiet_config(29));
  scenario_runner runner(be);
  runner.populate(10);
  runner.converge(80);
  const auto instances = to_dot_instances(be.overlay());
  EXPECT_NE(instances.find("digraph drtree"), std::string::npos);
  EXPECT_NE(instances.find("(root)"), std::string::npos);
  EXPECT_NE(instances.find("->"), std::string::npos);

  const auto peers = to_dot_peers(be.overlay());
  EXPECT_NE(peers.find("graph drtree_peers"), std::string::npos);
  EXPECT_NE(peers.find("--"), std::string::npos);
}

// ----------------------------------------------------- join edge cases

TEST(JoinEdgeCases, DuplicateJoinProbesAreHarmless) {
  drtree_backend be(quiet_config(31));
  scenario_runner runner(be);
  runner.populate(10);
  runner.converge(80);
  // The root's stabilize pass sends probes every period; run many periods
  // and verify the structure neither churns nor corrupts.
  const auto before = checker(be.overlay()).check();
  for (int i = 0; i < 10; ++i) {
    be.overlay().advance(be.overlay().config().stabilize_period);
    be.overlay().settle();
  }
  const auto after = checker(be.overlay()).check();
  EXPECT_TRUE(after.legal());
  EXPECT_EQ(after.height, before.height);
  EXPECT_EQ(after.live_peers, before.live_peers);
}

TEST(JoinEdgeCases, TallerFragmentAbsorbsShorterTree) {
  // Build two overlays in one simulator world: fragment A (well grown)
  // and a lone root B; B's probe must end with a single legal tree no
  // matter which side absorbs.
  drtree_backend be(quiet_config(37));
  scenario_runner runner(be);
  runner.populate(20);
  runner.converge(80);
  // Detach a subtree by crashing its parent chain... simpler: add a peer
  // whose join probe is lost (message loss burst), leaving it a fragment
  // root, then let stabilization merge it.
  const auto loner = be.overlay().add_peer(make_rect2(1, 1, 2, 2));
  // Do not settle: drop everything in flight by crashing and restarting
  // the loner (its outgoing probe dies with it).
  be.overlay().crash(loner);
  be.overlay().settle();
  be.overlay().sim().restart(loner);
  EXPECT_TRUE(be.overlay().peer(loner).is_root());
  ASSERT_GE(runner.converge(80), 0);
  EXPECT_TRUE(be.legal());
  EXPECT_EQ(checker(be.overlay()).check().reachable, 21u);
}

}  // namespace
}  // namespace drt::overlay
