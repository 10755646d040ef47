// Global-view validator for the DR-tree legal state (Definition 3.1) and
// the containment-awareness properties (Properties 3.1/3.2).
//
// The checker reads every live peer's state through the overlay — it is
// the experimenter's omniscient observer, not part of the protocol — and
// reports every violated predicate plus structural statistics (height,
// degree, memory) used by experiments E4-E9.
#ifndef DRT_DRTREE_CHECKER_H
#define DRT_DRTREE_CHECKER_H

#include <cstddef>
#include <string>
#include <vector>

#include "drtree/overlay.h"

namespace drt::overlay {

struct check_report {
  std::vector<std::string> violations;

  /// Peers named by the violations, in first-complaint order without
  /// duplicates — the subjects whose instance chains a violation dump
  /// renders (DESIGN.md §12).
  std::vector<spatial::peer_id> offenders;

  /// Flight-recorder dump written for this report (first violating check
  /// of a tracing overlay; see dr_overlay::claim_violation_dump).  Empty
  /// when tracing is off, dumps are disabled, or the structure is legal.
  /// Callers should name this file in any error message they raise.
  std::string dump_path;

  /// Definition 3.2: the configuration is legitimate iff no predicate of
  /// Definition 3.1 (plus single-root/reachability) is violated.
  bool legal() const { return violations.empty(); }

  // ------------------------------------------------------------- stats
  std::size_t live_peers = 0;
  std::size_t roots = 0;           ///< peers whose top instance self-parents
  std::size_t instances = 0;       ///< total per-level node instances
  std::size_t height = 0;          ///< root topmost height (leaf = 0)
  std::size_t reachable = 0;       ///< peers reachable from the root
  double avg_interior_children = 0.0;
  std::size_t max_interior_children = 0;
  /// Total stored links (children entries + parent pointers): the memory
  /// complexity Lemma 3.1 bounds by O(M log^2 N / log m) per peer.
  std::size_t memory_links = 0;
  std::size_t max_peer_links = 0;  ///< worst single peer

  // Property 3.1 / 3.2 accounting (over strictly-contained filter pairs).
  std::size_t containment_pairs = 0;
  std::size_t weak_violations = 0;    ///< containee top is ancestor of container top
  std::size_t strong_satisfied = 0;   ///< container (or common container) is ancestor/sibling
};

class checker {
 public:
  explicit checker(const dr_overlay& overlay) : overlay_(overlay) {}

  /// Full legality check: every violation, in walk order, plus the
  /// structural statistics.  `check_containment` enables the
  /// O(N^2 * height) Property 3.1/3.2 sweep (keep off for large N in hot
  /// loops).  `dump_on_violation` marks this as an assertion-level check:
  /// on the overlay's first violating such check with tracing enabled,
  /// the violation dump (offender instance chains + trace-ring tail) is
  /// written and its path recorded in the report.  It defaults off
  /// because a report may be read while the structure is *expected* to
  /// be transiently illegal — only callers that treat a violation as a
  /// failure should claim the dump.
  check_report check(bool check_containment = false,
                     bool dump_on_violation = false) const;

  /// The verdict alone: exactly check().legal(), but the same rule walk
  /// stops at the first violated rule and formats no text.  Convergence
  /// loops poll this every round.  With tracing on, an illegal verdict
  /// emits one `violation` record with a = 1.
  bool legal() const;

  /// Write the violation dump for `report` unconditionally (the one-shot
  /// auto-dump claim is bypassed): offender instance chains, their DOT
  /// subgraph, and the trace-ring tail.  Returns the file path ("" when
  /// nothing to write or the dump directory is unwritable) — name it in
  /// the error message so CI failures are diagnosable from artifacts.
  std::string dump(const check_report& report) const;

  /// Lemma 3.1 height bound: height <= ceil(log_m(N)) + slack.
  static bool within_height_bound(std::size_t height, std::size_t m,
                                  std::size_t n, std::size_t slack = 1);

 private:
  const dr_overlay& overlay_;
};

}  // namespace drt::overlay

#endif  // DRT_DRTREE_CHECKER_H
