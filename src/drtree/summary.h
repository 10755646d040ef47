// Coarse subtree summaries for publish-path pruning (DESIGN.md §9).
//
// Routing an event down the DR-tree tests each child's full-precision MBR
// at every hop.  An MBR is the *join* of the children below it, so it
// over-approximates aggressively: the union of a few small filters in
// opposite corners becomes one big rectangle whose interior is almost all
// dead space, and every event landing in that dead space pays a full
// subtree descent before discovering nobody down there matches.
//
// A `subtree_summary` refines the MBR with a k×k occupancy bitmap over a
// bounded *frame* (the instance MBR clamped to the workspace at the last
// full rebuild): a bit is set iff some live leaf filter below the
// instance may overlap that cell.  With `summary = both` the admit test
// is the MBR test plus one bit probe — a non-matching subtree is pruned
// without descending; `summary = mbr` keeps the paper's MBR-only routing.
//
// Soundness contract (checked by overlay::checker): the summary must
// OVER-approximate the true filter set below the instance.  Every point v
// of a live reachable leaf filter with mbr.contains(v) must be admitted:
//  * inside the frame the cell bit must be set,
//  * outside the frame the test falls back to the plain MBR — which is
//    what keeps unbounded filters and incremental MBR growth sound: marks
//    never have to chase a moving frame, points beyond it simply degrade
//    to today's MBR-only routing until the next rebuild re-frames.
// Staleness is one-sided by construction: additions mark eagerly along
// the join path, removals leave bits set until a rebuild clears them, so
// a stale summary admits too much, never too little.
//
// The grid is 2-D (spatial::kDims == 2), k <= 8, one std::uint64_t of
// bits — the summary adds 48 inline bytes per instance and no heap.
#ifndef DRT_DRTREE_SUMMARY_H
#define DRT_DRTREE_SUMMARY_H

#include <cstddef>
#include <cstdint>

#include "spatial/types.h"

namespace drt::overlay {

/// What the publish fan-out consults before descending into a child
/// (`dr_config::summary`).
enum class summary_mode : std::uint8_t {
  mbr,   ///< coarsened MBR only — the paper's routing, bit-for-bit
  both,  ///< MBR test AND occupancy bitmap inside the frame
};

inline const char* to_string(summary_mode m) {
  switch (m) {
    case summary_mode::mbr: return "mbr";
    case summary_mode::both: return "both";
  }
  return "?";
}

struct subtree_summary {
  static constexpr std::size_t kMaxGrid = 8;  // k*k bits must fit 64

  spatial::box frame = spatial::box::empty();
  std::uint64_t bits = 0;
  std::uint8_t k = 0;  ///< grid resolution; 0 = absent (MBR-only routing)

  bool valid() const { return k != 0 && !frame.is_empty(); }

  void clear() {
    frame = spatial::box::empty();
    bits = 0;
    k = 0;
  }

  /// Start a full rebuild over `f` at resolution `kk`.  An empty or
  /// unbounded frame (a root whose children are all unbounded filters)
  /// leaves the summary absent: the admit test then degrades to the MBR.
  void reset_frame(const spatial::box& f, std::size_t kk) {
    bits = 0;
    if (kk == 0 || f.is_empty() || !f.is_bounded()) {
      frame = spatial::box::empty();
      k = 0;
      return;
    }
    frame = f;
    k = static_cast<std::uint8_t>(kk > kMaxGrid ? kMaxGrid : kk);
  }

  /// Cell index along dimension `dim` for coordinate `x` (clamped to the
  /// frame).  A degenerate frame axis maps everything to cell 0.
  std::size_t cell(double x, std::size_t dim) const {
    const double lo = frame.lo[dim];
    const double hi = frame.hi[dim];
    if (!(hi > lo)) return 0;
    const double t = (x - lo) / (hi - lo) * static_cast<double>(k);
    if (!(t > 0.0)) return 0;
    const auto i = static_cast<std::size_t>(t);
    return i >= k ? k - 1u : i;
  }

  /// The geometric extent of cell (i, j) — used to re-rasterize a child
  /// grid into a parent frame.
  spatial::box cell_box(std::size_t i, std::size_t j) const {
    const double w = (frame.hi[0] - frame.lo[0]) / static_cast<double>(k);
    const double h = (frame.hi[1] - frame.lo[1]) / static_cast<double>(k);
    return geo::make_rect2(frame.lo[0] + static_cast<double>(i) * w,
                           frame.lo[1] + static_cast<double>(j) * h,
                           frame.lo[0] + static_cast<double>(i + 1) * w,
                           frame.lo[1] + static_cast<double>(j + 1) * h);
  }

  bool test(const spatial::pt& v) const {
    return (bits >> (cell(v[1], 1) * k + cell(v[0], 0))) & 1u;
  }

  /// Set every cell intersecting `b` (clamped to the frame).  This is the
  /// incremental maintenance primitive: subscribe/join deltas OR the new
  /// subtree's MBR in without touching the rest of the grid.
  void mark_box(const spatial::box& b) {
    if (!valid() || b.is_empty()) return;
    const auto r = intersection(b, frame);
    if (r.is_empty()) return;
    const auto i0 = cell(r.lo[0], 0);
    const auto i1 = cell(r.hi[0], 0);
    const auto j0 = cell(r.lo[1], 1);
    const auto j1 = cell(r.hi[1], 1);
    for (std::size_t j = j0; j <= j1; ++j) {
      for (std::size_t i = i0; i <= i1; ++i) {
        bits |= std::uint64_t{1} << (j * k + i);
      }
    }
  }

  /// OR a child's occupied region into this grid (the interior-rebuild
  /// primitive).  The child occupies its set cells plus everything its
  /// MBR covers beyond its own frame (where its admit test falls back to
  /// the MBR), so both regions are re-rasterized conservatively.
  void merge(const subtree_summary& c, const spatial::box& c_mbr) {
    if (!valid()) return;
    if (!c.valid()) {
      mark_box(c_mbr);
      return;
    }
    for (std::size_t j = 0; j < c.k; ++j) {
      for (std::size_t i = 0; i < c.k; ++i) {
        if ((c.bits >> (j * c.k + i)) & 1u) mark_box(c.cell_box(i, j));
      }
    }
    if (c_mbr.is_empty() || c.frame.contains(c_mbr)) return;
    // The four strips of c_mbr sticking out of c's frame.
    const auto& f = c.frame;
    spatial::box strip = c_mbr;
    strip.hi[0] = f.lo[0];
    mark_box(strip);  // left
    strip = c_mbr;
    strip.lo[0] = f.hi[0];
    mark_box(strip);  // right
    strip = c_mbr;
    strip.hi[1] = f.lo[1];
    mark_box(strip);  // below
    strip = c_mbr;
    strip.lo[1] = f.hi[1];
    mark_box(strip);  // above
  }

  /// True iff every cell intersecting `region` (clamped to the frame) is
  /// set — the checker's no-false-pruning probe: any point of `region`
  /// inside the frame would pass the bitmap test.
  bool covers(const spatial::box& region) const {
    if (!valid() || region.is_empty()) return true;
    const auto r = intersection(region, frame);
    if (r.is_empty()) return true;
    const auto i0 = cell(r.lo[0], 0);
    const auto i1 = cell(r.hi[0], 0);
    const auto j0 = cell(r.lo[1], 1);
    const auto j1 = cell(r.hi[1], 1);
    for (std::size_t j = j0; j <= j1; ++j) {
      for (std::size_t i = i0; i <= i1; ++i) {
        if (((bits >> (j * k + i)) & 1u) == 0) return false;
      }
    }
    return true;
  }
};

/// The publish-path admit test: may a matching subscriber exist below an
/// instance with this summary and MBR for an event at `v`?
inline bool summary_admits(summary_mode mode, const subtree_summary& s,
                           const spatial::box& mbr, const spatial::pt& v) {
  if (!mbr.contains(v)) return false;
  if (mode == summary_mode::mbr || !s.valid() || !s.frame.contains(v)) {
    return true;
  }
  return s.test(v);
}

}  // namespace drt::overlay

#endif  // DRT_DRTREE_SUMMARY_H
