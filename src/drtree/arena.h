// Shard-local arena for per-height peer protocol state.
//
// Every dr_peer owns a chain of tree-node *instances* (peer.h); before
// this arena each peer kept them in its own std::map<height, instance>,
// so a stabilization sweep over a shard chased one heap node per
// (peer, height) pair.  Now a dr_overlay owns one instance_arena and
// peers hold 32-bit slot handles: all instances of a shard live in a few
// contiguous slabs, released slots are recycled LIFO with their vector
// capacities intact, and a shard's protocol-state footprint is one
// number (arena_stats) instead of a million scattered allocations.
//
// Address stability is the load-bearing property: protocol actions hold
// `instance&` references across ensure_inst() calls on *other* peers
// (split_and_push, promote_child wire several peers in one atomic step),
// so slabs are fixed-size chunks that never move or reallocate.  This is
// also why the layout is slot-granular rather than fully
// struct-of-arrays: a per-field SoA cannot hand out stable references to
// whole instances (DESIGN.md §8 records the deviation).
#ifndef DRT_DRTREE_ARENA_H
#define DRT_DRTREE_ARENA_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "spatial/types.h"
#include "util/expect.h"

namespace drt::overlay {

/// Per-height protocol variables (§3.2 "Data Structures"): the children
/// set C^l_p, parent^l_p, mbr^l_p and the underloaded flag.
struct instance {
  std::vector<spatial::peer_id> children;
  spatial::peer_id parent = spatial::kNoPeer;
  spatial::box mbr = spatial::box::empty();
  bool underloaded = false;

  // §3.2 "Dynamic Reorganizations": false positives experienced by this
  // instance, and the false positives each child *would* have experienced
  // in its place (experiment E15).
  std::uint64_t fp_self = 0;
  std::uint64_t events_seen = 0;
  std::unordered_map<spatial::peer_id, std::uint64_t> fp_child_would;

  // Hot membership checks: inline so the routing/stabilization loops
  // never pay a call on them.
  bool has_child(spatial::peer_id q) const {
    return std::find(children.begin(), children.end(), q) != children.end();
  }
  void add_child(spatial::peer_id q) {
    if (!has_child(q)) children.push_back(q);
  }
  bool remove_child(spatial::peer_id q);
};

/// Handle to one instance slot inside an arena.
using inst_slot = std::uint32_t;
inline constexpr inst_slot kNoSlot = static_cast<inst_slot>(-1);

/// Footprint of one arena, for the memory experiments: slab bytes are
/// the slot storage itself, heap bytes the per-instance dynamic state
/// (children capacity, FP-counter buckets) hanging off it.
struct arena_stats {
  std::size_t slots = 0;       ///< slots ever carved (free-listed included)
  std::size_t live = 0;        ///< slots currently acquired
  std::size_t slab_bytes = 0;  ///< chunk storage
  std::size_t heap_bytes = 0;  ///< dynamic state owned by the slots
  /// The live peers' duplicate-suppression sets (dr_peer::seen_bytes),
  /// filled by dr_overlay::memory_stats.  Not part of total_bytes(), so
  /// arena bytes/peer stay comparable with runs that predate it.
  std::size_t seen_bytes = 0;
  std::size_t total_bytes() const { return slab_bytes + heap_bytes; }
};

/// Slab allocator of instance slots.  Chunks never move (stable
/// addresses, see the header comment); released slots recycle LIFO and
/// keep their container capacities, so steady-state churn stops
/// allocating once the arena is warm.
class instance_arena {
 public:
  static constexpr std::size_t kChunkSlots = 256;

  instance_arena() = default;
  instance_arena(const instance_arena&) = delete;
  instance_arena& operator=(const instance_arena&) = delete;

  /// Take a slot for an instance at `height`, reset to the
  /// default-constructed state (capacities retained).
  inst_slot acquire(std::size_t height) {
    inst_slot s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      if (size_ == chunks_.size() * kChunkSlots) {
        chunks_.push_back(std::make_unique<instance[]>(kChunkSlots));
      }
      s = static_cast<inst_slot>(size_++);
      meta_.resize(size_);
    }
    meta_[s].height = static_cast<std::uint32_t>(height);
    meta_[s].live = true;
    ++live_;
    reset(at(s));
    return s;
  }

  /// Return a slot to the free list.  The contents stay untouched until
  /// the slot is reacquired — consistent with the transient-fault model,
  /// where stale state is never scrubbed behind a process's back.
  void release(inst_slot s) {
    DRT_EXPECT(s < size_ && meta_[s].live);
    meta_[s].live = false;
    --live_;
    free_.push_back(s);
  }

  instance& at(inst_slot s) {
    return chunks_[s / kChunkSlots][s % kChunkSlots];
  }
  const instance& at(inst_slot s) const {
    return chunks_[s / kChunkSlots][s % kChunkSlots];
  }

  std::size_t live_slots() const { return live_; }

  arena_stats stats() const {
    arena_stats st;
    st.slots = size_;
    st.live = live_;
    st.slab_bytes = chunks_.size() * kChunkSlots * sizeof(instance) +
                    meta_.capacity() * sizeof(slot_meta) +
                    free_.capacity() * sizeof(inst_slot);
    for (std::size_t s = 0; s < size_; ++s) {
      const auto& ins = at(static_cast<inst_slot>(s));
      st.heap_bytes += ins.children.capacity() * sizeof(spatial::peer_id);
      // unordered_map footprint estimate: bucket array + one node per
      // entry (pointer + key/value + allocator overhead).
      st.heap_bytes += ins.fp_child_would.bucket_count() * sizeof(void*) +
                       ins.fp_child_would.size() *
                           (sizeof(void*) + sizeof(spatial::peer_id) +
                            sizeof(std::uint64_t));
    }
    return st;
  }

 private:
  struct slot_meta {
    std::uint32_t height = 0;
    bool live = false;
  };

  static void reset(instance& ins) {
    ins.children.clear();
    ins.parent = spatial::kNoPeer;
    ins.mbr = spatial::box::empty();
    ins.underloaded = false;
    ins.fp_self = 0;
    ins.events_seen = 0;
    ins.fp_child_would.clear();
  }

  std::vector<std::unique_ptr<instance[]>> chunks_;
  std::vector<slot_meta> meta_;
  std::vector<inst_slot> free_;
  std::size_t size_ = 0;
  std::size_t live_ = 0;
};

}  // namespace drt::overlay

#endif  // DRT_DRTREE_ARENA_H
