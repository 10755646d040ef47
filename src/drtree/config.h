// Configuration of the DR-tree overlay protocol.
#ifndef DRT_DRTREE_CONFIG_H
#define DRT_DRTREE_CONFIG_H

#include <cstddef>

#include "obs/trace.h"
#include "rtree/split.h"
#include "sim/simulator.h"
#include "spatial/types.h"

namespace drt::overlay {

/// Parent/root election policy.  The paper (Fig. 6) elects the member
/// whose MBR has the largest coverage area; the alternatives exist for the
/// ablation experiment E12.
enum class election_policy {
  largest_mbr,   ///< the paper's rule
  smallest_mbr,  ///< adversarial control
  random_member  ///< containment-oblivious control
};

inline const char* to_string(election_policy p) {
  switch (p) {
    case election_policy::largest_mbr: return "largest_mbr";
    case election_policy::smallest_mbr: return "smallest_mbr";
    case election_policy::random_member: return "random";
  }
  return "?";
}

/// Which stabilization modules a stabilize pass runs.  Disabling
/// modules is used by failure-injection tests to show each module is
/// *necessary* (the structure then fails to recover from the fault class
/// that module repairs).
struct stabilizer_switches {
  bool check_mbr = true;        // Fig. 10
  bool check_parent = true;     // Fig. 11
  bool check_children = true;   // Fig. 12
  bool check_cover = true;      // Fig. 13
  bool check_structure = true;  // Fig. 14
};

/// Hop budget on routed messages: prevents livelock while routing over
/// corrupted (possibly cyclic) parent pointers.  Generous — legal routes
/// are O(log N).
inline constexpr std::size_t kMaxRouteHops = 64;

/// Flight-recorder ring capacity (records) when `dr_config::trace` is on.
inline constexpr std::size_t kTraceCapacity = 1u << 14;

struct dr_config {
  /// R-tree degree bounds: every non-root interior node keeps between
  /// min_children (m) and max_children (M) children; the paper requires
  /// M >= 2m so splits can honor the lower bound.
  std::size_t min_children = 2;   ///< m
  std::size_t max_children = 8;   ///< M

  rtree::split_method split = rtree::split_method::quadratic;
  election_policy election = election_policy::largest_mbr;
  stabilizer_switches stabilizers{};

  /// Period of each peer's stabilization timer (virtual time).  The paper
  /// calls this the "timeout" driving the CHECK_* events.
  sim::sim_time stabilize_period = 10.0;

  /// Background-sweep stride K of the stabilize scheduler (DESIGN.md §11).
  /// Every peer keeps a tick chain, one tick per period.  A peer runs its
  /// CHECK_* pass on a tick when the dirty set marked one of its
  /// instances since its last pass, when it is a root, or on every K-th
  /// tick regardless (staggered by peer id).  K = 1 is the paper's
  /// schedule, bit-for-bit: every peer, every period.  K > 1 skips clean
  /// peers, so silent corruption — state damaged without any protocol
  /// event — is found within K periods instead of one.
  std::size_t sweep_stride = 1;

  /// When true the FP-driven parent/child exchange of §3.2 ("Dynamic
  /// Reorganizations") runs on the stabilization timer (experiment E15).
  bool fp_reorganization = false;

  /// Controlled-departure repair strategy.  The paper's baseline (Fig. 9)
  /// merely notifies the parent and "relies on the stabilization
  /// mechanisms for repairing the subtree rooted at the departing node";
  /// it also notes "much more efficient variants are possible if the
  /// leave module drives the repair process and reconnects whole
  /// subtrees".  With this flag the departing peer hands each of its
  /// instance groups to a freshly elected leader on its way out, so no
  /// subtree ever needs to rejoin through the oracle.
  bool efficient_leave = false;

  /// How many recently accepted event ids each peer remembers to drop
  /// duplicates (the dissemination loop guard, drtree/seen_set.h).  Each
  /// arrival costs O(1); storage grows with the ids a peer has actually
  /// seen (~16 bytes per id) and stops at this cap, so a peer that never
  /// sees an event owns none.  The default is the historical constant the
  /// golden digests pin.
  std::size_t seen_ring = 2048;

  /// The workspace used to clamp unbounded filters for area heuristics.
  spatial::box workspace = geo::make_rect2(0, 0, 1000, 1000);

  /// Flight-recorder tracing (DESIGN.md §12).  `off` costs exactly one
  /// null-pointer branch per emit site — runs are bit-identical to the
  /// pre-trace code, pinned by the metrics-digest tests; `ring` records
  /// protocol events into a bounded ring; `full` grows without bound and
  /// adds a record per simulator message delivery.
  obs::trace_mode trace = obs::trace_mode::off;

  /// With tracing on, automatically write a flight dump on the overlay's
  /// first false negative and on the checker's first violation report
  /// ($DRT_DUMP_DIR, default "."); the checker names the file in its
  /// report so CI failures carry their own diagnosis.
  bool trace_dump = true;
};

}  // namespace drt::overlay

#endif  // DRT_DRTREE_CONFIG_H
