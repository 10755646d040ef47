#include "drtree/checker.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "drtree/dot.h"
#include "obs/trace.h"

namespace drt::overlay {

using spatial::kNoPeer;
using spatial::peer_id;

namespace {

/// The Definition 3.1 rules, written once (DESIGN.md §5): one walk over
/// the live peers that reports to one of two sinks.  Collecting
/// (check()) records every violation with its text and offender;
/// first-only (legal()) formats nothing and stops at the first broken
/// rule.  Reachability from the root runs last, under exactly one root.
class rule_walk {
 public:
  rule_walk(const dr_overlay& overlay, check_report& r, bool first_only)
      : ov_(overlay), r_(r), first_only_(first_only) {}

  /// Apply every rule; true iff none broke.
  bool run() {
    r_.live_peers = ov_.live_count();
    if (r_.live_peers == 0) return true;
    ov_.for_each_live([&](peer_id p) {
      peer_rules(p);
      return !stopped();
    });
    if (r_.roots != 1 && !stopped()) {
      complain(kNoPeer, [&] {
        std::string s = "expected exactly one root, found ";
        s += std::to_string(r_.roots);
        return s;
      });
      // The global rule heads the report, before every per-peer rule.
      if (!first_only_) {
        std::rotate(r_.violations.begin(), r_.violations.end() - 1,
                    r_.violations.end());
      }
    }
    if (interior_count_ > 0) {
      r_.avg_interior_children =
          children_sum_ / static_cast<double>(interior_count_);
    }
    if (r_.roots == 1 && !stopped()) reachability();
    return !broken_;
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  bool stopped() const { return first_only_ && broken_; }

  /// Record a violation naming `who` (kNoPeer: no one); `text` runs only
  /// when collecting.
  template <typename Text>
  void complain(peer_id who, Text&& text) {
    broken_ = true;
    if (first_only_) return;
    r_.violations.push_back(text());
    if (who != kNoPeer && std::find(r_.offenders.begin(), r_.offenders.end(),
                                    who) == r_.offenders.end()) {
      r_.offenders.push_back(who);
    }
  }

  /// A violation at instance (p, h), or at peer p when h is kNone:
  /// "peer p @hh" + what, then `n` and `tail` when n is given.
  void complain_at(peer_id p, std::uint64_t h, const char* what,
                   std::uint64_t n = kNone, const char* tail = "") {
    complain(p, [&] {
      std::string s = "peer ";
      s += std::to_string(p);
      if (h != kNone) {
        s += " @h";
        s += std::to_string(h);
      }
      s += what;
      if (n != kNone) {
        s += std::to_string(n);
        s += tail;
      }
      return s;
    });
  }

  void peer_rules(peer_id p) {
    const auto& peer = ov_.peer(p);
    if (peer.is_root()) {
      root_ = p;
      // A second root already decides the verdict.
      if (++r_.roots == 2 && first_only_) {
        broken_ = true;
        return;
      }
    }
    const auto top = peer.top();
    r_.instances += peer.instance_count();

    // Heights must be exactly 0..top (the peer is present at every level
    // of its subtree).
    if (peer.instance_count() != top + 1) {
      complain_at(p, kNone, " has non-contiguous instance heights");
    }

    std::size_t peer_links = 0;
    for (std::size_t h = 0; h <= top && !stopped(); ++h) {
      const auto* ins = peer.find_inst(h);
      if (ins == nullptr) continue;
      peer_links += ins->children.size() + 1;
      if (h == 0) {
        if (ins->mbr != peer.filter()) {
          complain_at(p, h, ": leaf MBR differs from filter");
        }
        if (!ins->children.empty()) {
          complain_at(p, h, ": leaf instance has children");
        }
      } else {
        interior_rules(p, peer, h, *ins);
      }
      parent_rule(p, h, top, *ins);
    }
    r_.memory_links += peer_links;
    r_.max_peer_links = std::max(r_.max_peer_links, peer_links);
  }

  void interior_rules(peer_id p, const dr_peer& peer, std::size_t h,
                      const instance& ins) {
    const auto& cfg = ov_.config();
    const auto n = ins.children.size();
    ++interior_count_;
    children_sum_ += static_cast<double>(n);
    r_.max_interior_children = std::max(r_.max_interior_children, n);

    // Degree bounds (Definition 3.1 bullet 1).  A two-peer system cannot
    // avoid a 2-child root below m; the root is exempt from m.
    if (n > cfg.max_children) {
      complain_at(p, h, ": more than M children (", n, ")");
    }
    if (peer.is_root() && h == peer.top()) {
      if (n < 2) complain_at(p, h, ": root with fewer than 2 children");
    } else if (n < cfg.min_children) {
      complain_at(p, h, ": fewer than m children (", n, ")");
    }

    // underloaded flag correctness (Fig. 12).
    if (ins.underloaded != (n < cfg.min_children)) {
      complain_at(p, h, ": underloaded flag incorrect");
    }

    // Self-child invariant (§3: "recursively its own child").
    if (!ins.has_child(p)) {
      complain_at(p, h, ": missing own lower instance in children");
    }

    // Children coherence, MBR exactness (bullets 2 and 4) and cover
    // optimality (bullet 3: no child covers better than the peer's own
    // lower instance), looking each child's instance up once.
    const bool cover = cfg.election == election_policy::largest_mbr;
    double own_area = -1.0;
    if (cover) {
      if (const auto* own = peer.find_inst(h - 1)) {
        own_area = own->mbr.clamped(cfg.workspace).area();
      }
    }
    auto expected = spatial::box::empty();
    peer_id better = kNoPeer;  // the first child that covers better
    for (const auto q : ins.children) {
      if (!ov_.alive(q)) {
        complain_at(p, h, ": dead child ", q);
        continue;
      }
      const auto* qi = ov_.peer(q).find_inst(h - 1);
      if (qi == nullptr) {
        complain_at(p, h, ": child ", q, " lacks an instance at h-1");
        continue;
      }
      if (qi->parent != p) {
        complain_at(p, h, ": child ", q, " points to a different parent");
      }
      expected = join(expected, qi->mbr);
      if (cover && better == kNoPeer && q != p &&
          qi->mbr.clamped(cfg.workspace).area() > own_area) {
        better = q;
      }
    }
    if (ins.mbr != expected) {
      complain_at(p, h, ": MBR is not the union of children MBRs");
    }
    if (better != kNoPeer) {
      complain_at(p, h, ": child ", better, " offers a better cover");
    }
  }

  // Parent coherence (bullet 2); root uniqueness is the global count.
  void parent_rule(peer_id p, std::size_t h, std::size_t top,
                   const instance& ins) {
    if (h < top) {
      if (ins.parent != p) {
        complain_at(p, h, ": non-top instance not own-parented");
      }
    } else if (ins.parent == p) {
      // Root instance.
    } else if (ins.parent == kNoPeer || !ov_.alive(ins.parent)) {
      complain_at(p, h, ": parent missing or dead");
    } else {
      const auto* pi = ov_.peer(ins.parent).find_inst(h + 1);
      if (pi == nullptr || !pi->has_child(p)) {
        complain_at(p, h, ": not registered at parent ", ins.parent);
      }
    }
  }

  // Reachability from the root: every subscriber must be in the tree.
  // Flat arrays indexed by peer id; an id at or above process_count()
  // names no peer and is skipped.
  void reachability() {
    const auto ids = ov_.sim().process_count();
    std::vector<std::uint8_t> seen(ids, 0);
    std::vector<std::pair<peer_id, std::size_t>> stack;  // (peer, height)
    stack.reserve(ids);
    r_.height = ov_.peer(root_).top();
    stack.emplace_back(root_, r_.height);
    seen[root_] = 1;
    while (!stack.empty()) {
      const auto [p, h] = stack.back();
      stack.pop_back();
      if (h == 0) continue;
      const auto* ins = ov_.alive(p) ? ov_.peer(p).find_inst(h) : nullptr;
      if (ins == nullptr) continue;
      for (const auto q : ins->children) {
        if (q >= ids) continue;
        if (ov_.alive(q)) stack.emplace_back(q, h - 1);
        seen[q] = 1;
      }
    }
    std::size_t reached = 0;
    ov_.for_each_live([&](peer_id p) {
      if (seen[p] != 0) {
        ++reached;
      } else {
        complain_at(p, kNone, " unreachable from root");
      }
      return !stopped();
    });
    r_.reachable = reached;
  }

  const dr_overlay& ov_;
  check_report& r_;
  const bool first_only_;
  bool broken_ = false;
  peer_id root_ = kNoPeer;
  double children_sum_ = 0.0;
  std::size_t interior_count_ = 0;
};

}  // namespace

check_report checker::check(bool check_containment,
                            bool dump_on_violation) const {
  check_report r;
  rule_walk(overlay_, r, /*first_only=*/false).run();

  // Properties 3.1 / 3.2 over strictly-contained pairs.
  if (check_containment && r.roots == 1) {
    // The all-pairs scans below genuinely need a random-access snapshot;
    // build it here so the common check(false) path stays allocation-free.
    std::vector<peer_id> live;
    live.reserve(r.live_peers);
    overlay_.for_each_live([&](peer_id p) { live.push_back(p); });

    // Ancestor peer chains from each peer's topmost instance.
    std::unordered_map<peer_id, std::vector<peer_id>> ancestors;
    for (const auto p : live) {
      std::vector<peer_id> chain;
      peer_id cur = p;
      std::size_t h = overlay_.peer(p).top();
      std::size_t guard = 0;
      while (guard++ < 128) {
        const auto* ins = overlay_.peer(cur).find_inst(h);
        if (ins == nullptr || ins->parent == cur) break;
        if (!overlay_.alive(ins->parent)) break;
        cur = ins->parent;
        ++h;
        chain.push_back(cur);
      }
      ancestors.emplace(p, std::move(chain));
    }
    auto parent_of_top = [&](peer_id p) -> peer_id {
      const auto& chain = ancestors.at(p);
      return chain.empty() ? kNoPeer : chain.front();
    };
    auto is_ancestor = [&](peer_id a, peer_id b) {
      // Is a's top an ancestor of b's top?
      const auto& chain = ancestors.at(b);
      return std::find(chain.begin(), chain.end(), a) != chain.end();
    };

    for (const auto s2 : live) {       // container
      for (const auto s1 : live) {     // containee
        if (s1 == s2) continue;
        const auto& f1 = overlay_.peer(s1).filter();
        const auto& f2 = overlay_.peer(s2).filter();
        if (!f2.contains(f1) || f1 == f2) continue;  // need strict s1 < s2
        ++r.containment_pairs;
        // Property 3.1: the containee's top must not be an ancestor of
        // the container's top.  Counted, not fatal: the properties are
        // routing-accuracy goals, not part of Definition 3.1 legality
        // (the paper itself notes insertion/removal order "may lead to
        // sub-optimal configurations").
        if (is_ancestor(s1, s2)) ++r.weak_violations;
        // Property 3.2: some container s3 of s1 (s2 itself or another
        // container not comparable upward) is an ancestor or sibling.
        bool satisfied = false;
        for (const auto s3 : live) {
          if (s3 == s1) continue;
          const auto& f3 = overlay_.peer(s3).filter();
          if (!f3.contains(f1)) continue;
          if (is_ancestor(s3, s1) ||
              (parent_of_top(s3) != kNoPeer &&
               parent_of_top(s3) == parent_of_top(s1))) {
            satisfied = true;
            break;
          }
        }
        if (satisfied) ++r.strong_satisfied;
      }
    }
  }

  if (!r.violations.empty()) {
    if (auto* t = overlay_.trace()) {
      t->emit(overlay_.sim().now(), obs::trace_kind::violation, 0,
              r.violations.size());
    }
    // First violating assertion-level check of a tracing overlay: freeze
    // the flight recorder so the illegal state explains itself from CI
    // artifacts.  Polling checks (dump_on_violation == false) only emit
    // the trace record — transient illegality mid-convergence is normal.
    if (dump_on_violation && overlay_.claim_violation_dump()) {
      r.dump_path = dump(r);
    }
  }

  return r;
}

bool checker::legal() const {
  check_report r;
  if (rule_walk(overlay_, r, /*first_only=*/true).run()) return true;
  // The same record a polling check() emits; a = 1, the walk stopped at
  // the first violation.
  if (auto* t = overlay_.trace()) {
    t->emit(overlay_.sim().now(), obs::trace_kind::violation, 0, 1);
  }
  return false;
}

std::string checker::dump(const check_report& report) const {
  std::ostringstream ctx;
  ctx << "checker found " << report.violations.size() << " violation(s), "
      << report.live_peers << " live peers, " << report.roots << " roots\n";
  constexpr std::size_t kMaxViolations = 50;
  for (std::size_t i = 0;
       i < report.violations.size() && i < kMaxViolations; ++i) {
    ctx << "  " << report.violations[i] << "\n";
  }
  if (report.violations.size() > kMaxViolations) {
    ctx << "  ... " << report.violations.size() - kMaxViolations
        << " more\n";
  }
  constexpr std::size_t kMaxOffenders = 8;
  ctx << "\n--- offending peers' instance chains ---\n";
  for (std::size_t i = 0;
       i < report.offenders.size() && i < kMaxOffenders; ++i) {
    ctx << describe_instance_chain(overlay_, report.offenders[i]);
  }
  ctx << "\n--- offender chain subgraphs (graphviz) ---\n";
  for (std::size_t i = 0;
       i < report.offenders.size() && i < kMaxOffenders; ++i) {
    ctx << to_dot_instance_chain(overlay_, report.offenders[i]);
  }
  const auto* t = overlay_.trace();
  return obs::write_flight_dump(
      "checker-violation",
      t != nullptr ? t->snapshot() : std::vector<obs::trace_record>{}, 512,
      ctx.str());
}

bool checker::within_height_bound(std::size_t height, std::size_t m,
                                  std::size_t n, std::size_t slack) {
  if (n <= 1) return height == 0;
  const double bound =
      std::ceil(std::log(static_cast<double>(n)) /
                std::log(static_cast<double>(std::max<std::size_t>(m, 2))));
  return static_cast<double>(height) <= bound + static_cast<double>(slack);
}

}  // namespace drt::overlay
