// Per-peer duplicate suppression for the dissemination path (DESIGN.md §8).
//
// Under a corrupted topology (or a network that duplicates messages) an
// event can reach a peer twice; the peer drops every copy after the
// first by remembering the ids it accepted.  A seen_set remembers the
// last `capacity` distinct ids in FIFO order: inserting an id it still
// holds is a hit and changes nothing; any other id is remembered,
// evicting the oldest once `capacity` are held.  Until `capacity` ids
// have been accepted, id 0 also reads as held — the behaviour of the
// zero-filled linear ring this replaced, kept so that every recorder
// digest is unchanged.
//
// Storage follows use.  The FIFO is a ring that grows by doubling up to
// `capacity`, and an open-addressed index (linear probing, load at most
// 1/2, backward-shift deletion so there are no tombstones) maps each
// held id to its ring position.  Lookup, insertion and eviction are O(1)
// expected; a fresh set owns no heap, and a full one never allocates
// again.
#ifndef DRT_DRTREE_SEEN_SET_H
#define DRT_DRTREE_SEEN_SET_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/expect.h"

namespace drt::overlay {

class seen_set {
 public:
  /// Remembers up to `capacity` ids (0 is treated as 1).
  explicit seen_set(std::size_t capacity)
      : cap_(std::max<std::size_t>(1, capacity)) {
    // Index cells store ring position + 1 in 32 bits.
    DRT_EXPECT(cap_ < std::numeric_limits<std::uint32_t>::max());
  }

  /// Remember `id`; false when it was already held (a duplicate).
  bool insert(std::uint64_t id) {
    if (id == 0 && ring_.size() < cap_) return false;  // legacy zero fill
    if (find(id) != kNoCell) return false;
    if (ring_.size() < cap_) {
      if (ring_.size() == ring_.capacity()) grow();
      ring_.push_back(id);
      place(static_cast<std::uint32_t>(ring_.size() - 1));
      return true;
    }
    const auto oldest = find(ring_[head_]);
    DRT_ENSURE(oldest != kNoCell);  // every held id is indexed
    erase(oldest);
    ring_[head_] = id;
    place(static_cast<std::uint32_t>(head_));
    head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    return true;
  }

  /// Heap owned by the ring and the index.
  std::size_t heap_bytes() const {
    return ring_.capacity() * sizeof(std::uint64_t) +
           index_.capacity() * sizeof(std::uint32_t);
  }

 private:
  /// Value of an empty index cell; occupied cells hold position + 1.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::size_t kNoCell =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kMinRing = 8;

  /// Home cell of `id`: Fibonacci hashing, so sequential ids spread.
  std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t mask() const { return index_.size() - 1; }

  /// Index cell holding `id`, or kNoCell when it is not held.
  std::size_t find(std::uint64_t id) const {
    if (index_.empty()) return kNoCell;
    for (std::size_t c = home(id);; c = (c + 1) & mask()) {
      const auto v = index_[c];
      if (v == kEmpty) return kNoCell;
      if (ring_[v - 1] == id) return c;
    }
  }

  /// Index ring position `pos` under the id stored there.
  void place(std::uint32_t pos) {
    std::size_t c = home(ring_[pos]);
    while (index_[c] != kEmpty) c = (c + 1) & mask();
    index_[c] = pos + 1;
  }

  /// Empty index cell `hole`, shifting later members of its probe run
  /// back so every lookup still reaches them.
  void erase(std::size_t hole) {
    for (std::size_t c = (hole + 1) & mask(); index_[c] != kEmpty;
         c = (c + 1) & mask()) {
      // The entry at c may fill the hole unless its home lies cyclically
      // in (hole, c].
      if (((c - home(ring_[index_[c] - 1])) & mask()) >=
          ((c - hole) & mask())) {
        index_[hole] = index_[c];
        hole = c;
      }
    }
    index_[hole] = kEmpty;
  }

  /// Double the ring (up to cap_) and rebuild the index at load <= 1/2.
  /// Only runs before the first eviction, so positions are 0..size-1.
  void grow() {
    ring_.reserve(std::min(cap_, std::max(kMinRing, 2 * ring_.capacity())));
    std::size_t cells = 2;
    shift_ = 63;
    while (cells < 2 * ring_.capacity()) {
      cells *= 2;
      --shift_;
    }
    std::vector<std::uint32_t>(cells, kEmpty).swap(index_);
    for (std::size_t p = 0; p < ring_.size(); ++p) {
      place(static_cast<std::uint32_t>(p));
    }
  }

  std::size_t cap_;
  std::vector<std::uint64_t> ring_;   ///< held ids; oldest at head_ once full
  std::vector<std::uint32_t> index_;  ///< power-of-two cells, kEmpty or pos+1
  std::size_t head_ = 0;              ///< next position to evict once full
  unsigned shift_ = 63;               ///< 64 - log2(index_.size())
};

}  // namespace drt::overlay

#endif  // DRT_DRTREE_SEEN_SET_H
