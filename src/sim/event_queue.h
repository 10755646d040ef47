// Two-level calendar queue: the simulator's event scheduler.
//
// The seed implementation kept every pending event in one binary heap —
// O(log n) comparisons and ~130-byte element moves per operation, at
// queue depths that reach millions of events in the churn/loss sweeps.
// This replaces it with the classic discrete-event-simulation structure:
//
//  * a ring of `kBuckets` time buckets, each `width` virtual-time wide,
//    covering the window [cur, cur + kBuckets*width).  push() appends to
//    the destination bucket (amortized O(1)); events land in (at, seq)
//    order by sorting each bucket once, lazily, when the cursor reaches
//    it (events are overwhelmingly pushed ahead of the cursor, so a
//    bucket is almost always complete by the time it is sorted).  An
//    occupancy bitmap over the ring lets the cursor jump straight to the
//    next non-empty bucket instead of stepping through empty ones;
//  * far events (beyond the window) wait in one of two places.  A far
//    event that is not earlier than the last one appended goes to an
//    ordered run, a FIFO ring: stabilize timers re-armed exactly one
//    period ahead arrive in time order, so they enter and leave in O(1).
//    Any other far event (a restart's random first phase) goes to a
//    min-heap.  Each time the window slides, events of both that fell
//    inside it migrate to their bucket.
//
// Determinism contract: pop() returns events in the *strict total order*
// (at, seq) — exactly the order the seed binary heap produced (seq is
// unique, so the order is unique).  Bucketing never reorders:
// bucket_number(at) is one monotonic function of `at`, all events in
// bucket b precede all events in buckets > b and every far event, and
// within the active bucket a full (at, seq) sort decides.  The
// golden-hash test in tests/sim_determinism_test.cpp pins this, bit for
// bit, against traces recorded with the seed scheduler.
#ifndef DRT_SIM_EVENT_QUEUE_H
#define DRT_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/message.h"
#include "util/expect.h"

namespace drt::sim {

using process_id = std::uint32_t;
inline constexpr process_id kNoProcess = static_cast<process_id>(-1);

/// Wall-clock-free virtual time.
using sim_time = double;

/// One scheduled occurrence: a message delivery or a one-shot timer.
/// Exactly one cache line: the payload is a one-pointer envelope into a
/// pooled block, so queue moves and bucket sorts shuffle 64 bytes, never
/// payload bytes.
struct pending_event {
  sim_time at = 0.0;
  std::uint64_t seq = 0;  ///< unique, FIFO tie-break => strict total order
  std::uint64_t type = 0;
  envelope payload;  ///< messages only
  sim_time dup_at = 0.0;  ///< a duplicated message's second arrival
  /// Messages: nonzero when the network duplicated this one.  Quiet
  /// timers: the target's incarnation when armed.
  std::uint64_t generation = 0;
  process_id from = kNoProcess;
  process_id to = kNoProcess;
  /// `quiet` is a one-shot timer that does not count toward the
  /// simulator's pending-work total, so run_steps()-style quiescence
  /// detection ignores it, and that dies with the incarnation that armed
  /// it.  Stabilize timers ride this kind so an armed future pass never
  /// keeps settle() spinning.
  enum class kind : std::uint8_t { message, timer, quiet };
  kind what = kind::message;
};
static_assert(sizeof(pending_event) == 64);

class calendar_queue {
 public:
  /// `width` is the virtual-time span of one bucket.  The simulator picks
  /// it from its delay configuration (~1/8 of the mean link delay) so a
  /// typical in-flight message population spreads over tens of buckets.
  explicit calendar_queue(double width)
      : width_(width), inv_width_(1.0 / width), buckets_(kBuckets) {
    DRT_EXPECT(width > 0.0);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(pending_event ev) {
    ++size_;
    std::int64_t b = bucket_number(ev.at);
    // FP safety clamp: `at` is never below the cursor's bucket (events
    // schedule at >= now), but an event landing exactly on the cursor's
    // lower edge must join the active bucket, never a stale ring slot.
    if (b < cur_bno_) b = cur_bno_;
    if (b >= window_end()) {
      if (run_.empty() || !later_first{}(run_.back(), ev)) {
        run_.push_back(std::move(ev));
      } else {
        overflow_.push_back(std::move(ev));
        std::push_heap(overflow_.begin(), overflow_.end(), later_first{});
      }
      return;
    }
    place(b, std::move(ev));
  }

  /// The (at, seq)-minimal event, or nullptr when empty.  Advances the
  /// cursor to the next occupied bucket and sorts it on first contact;
  /// pop() consumes what peek() exposes.
  pending_event* peek() {
    if (size_ == 0) return nullptr;
    for (;;) {
      auto& slot = buckets_[ring_index(cur_bno_)];
      if (!slot.empty()) {
        if (!active_sorted_) {
          sort_active(slot);
          active_sorted_ = true;
        }
        return &slot.back();
      }
      active_sorted_ = false;
      if (wheel_count_ == 0) {
        if (run_.empty() && overflow_.empty()) {
          return nullptr;  // unreachable: size_ > 0
        }
        // Wheel drained: jump the window straight to the earliest far
        // event instead of stepping bucket by bucket.
        cur_bno_ = earliest_far_bucket();
      } else {
        cur_bno_ += next_occupied_distance();
      }
      drain_far_into_window();
    }
  }

  pending_event pop() {
    pending_event* top = peek();
    DRT_EXPECT(top != nullptr);
    pending_event ev = std::move(*top);
    const auto i = ring_index(cur_bno_);
    buckets_[i].pop_back();
    if (buckets_[i].empty()) set_occupied(i, false);
    --wheel_count_;
    --size_;
    return ev;
  }

  /// Remove every event matching `pred` (crash-time dead-letter purge).
  /// Keeps relative order of survivors, so the active bucket and the run
  /// stay sorted.  Returns the number removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t removed = 0;
    // Only occupied buckets can hold a match: walk the bitmap's set bits.
    for (std::size_t w = 0; w < kWords; ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i = (w << 6) | std::countr_zero(bits);
        auto& slot = buckets_[i];
        const auto it = std::remove_if(slot.begin(), slot.end(), pred);
        const auto n = static_cast<std::size_t>(slot.end() - it);
        slot.erase(it, slot.end());
        if (slot.empty()) set_occupied(i, false);
        removed += n;
        wheel_count_ -= n;
      }
    }
    removed += run_.erase_if(pred);
    const auto it = std::remove_if(overflow_.begin(), overflow_.end(), pred);
    const auto n = static_cast<std::size_t>(overflow_.end() - it);
    overflow_.erase(it, overflow_.end());
    if (n > 0) std::make_heap(overflow_.begin(), overflow_.end(), later_first{});
    removed += n;
    size_ -= removed;
    return removed;
  }

 private:
  static constexpr std::size_t kBuckets = 1024;  // power of two
  static constexpr std::size_t kRingMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;

  /// "Less" for max-heap/descending use: the *later* event is smaller,
  /// so sorted vectors keep the earliest event at the back and
  /// std::push_heap keeps it at the front.
  struct later_first {
    bool operator()(const pending_event& a, const pending_event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Far events pushed in (at, seq) order, earliest first: a FIFO ring over
  /// one vector whose capacity is a power of two.  An append or a pop moves
  /// one event and never shifts the others.
  class ordered_run {
   public:
    bool empty() const { return size_ == 0; }
    const pending_event& front() const { return ring_[head_]; }
    const pending_event& back() const {
      return ring_[wrap(head_ + size_ - 1)];
    }

    void push_back(pending_event ev) {
      if (size_ == ring_.size()) grow();
      ring_[wrap(head_ + size_)] = std::move(ev);
      ++size_;
    }

    pending_event pop_front() {
      pending_event ev = std::move(ring_[head_]);
      head_ = wrap(head_ + 1);
      --size_;
      return ev;
    }

    /// Stable compaction: survivors keep their order, so the run stays
    /// sorted.  Returns the number removed.
    template <typename Pred>
    std::size_t erase_if(const Pred& pred) {
      // A crash purge rarely matches a far event: find the first match
      // with plain scans of the (at most two) contiguous segments.
      pending_event* const data = ring_.data();
      const std::size_t first_len = std::min(size_, ring_.size() - head_);
      std::size_t i = static_cast<std::size_t>(
          std::find_if(data + head_, data + head_ + first_len, pred) -
          (data + head_));
      if (i == first_len) {
        i += static_cast<std::size_t>(
            std::find_if(data, data + (size_ - first_len), pred) - data);
      }
      if (i == size_) return 0;
      std::size_t kept = i;
      for (++i; i < size_; ++i) {
        auto& ev = ring_[wrap(head_ + i)];
        if (!pred(ev)) ring_[wrap(head_ + kept++)] = std::move(ev);
      }
      // The tail holds removed events and moved-from husks: release the
      // removed ones' payloads now, as a vector erase would.
      for (i = kept; i < size_; ++i) ring_[wrap(head_ + i)] = pending_event{};
      const std::size_t removed = size_ - kept;
      size_ = kept;
      return removed;
    }

   private:
    std::size_t wrap(std::size_t i) const { return i & (ring_.size() - 1); }

    void grow() {
      std::vector<pending_event> bigger(ring_.empty() ? 64
                                                      : 2 * ring_.size());
      for (std::size_t i = 0; i < size_; ++i) {
        bigger[i] = std::move(ring_[wrap(head_ + i)]);
      }
      ring_.swap(bigger);
      head_ = 0;
    }

    std::vector<pending_event> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// Monotonic in `at` (positive multiply, then truncation): an event can
  /// never be assigned a strictly earlier bucket than any event with a
  /// smaller timestamp, which is what makes per-bucket ordering global.
  std::int64_t bucket_number(sim_time at) const {
    return static_cast<std::int64_t>(at * inv_width_);
  }

  std::int64_t window_end() const {
    return cur_bno_ + static_cast<std::int64_t>(kBuckets);
  }

  std::size_t ring_index(std::int64_t bno) const {
    return static_cast<std::size_t>(bno) & kRingMask;
  }

  void set_occupied(std::size_t i, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (on) {
      occupied_[i >> 6] |= bit;
    } else {
      occupied_[i >> 6] &= ~bit;
    }
  }

  /// Ring distance from the cursor's (empty) bucket to the next occupied
  /// one, searching the bitmap cyclically.  Needs wheel_count_ > 0.
  std::int64_t next_occupied_distance() const {
    const std::size_t from = ring_index(cur_bno_);
    std::size_t w = from >> 6;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from & 63));
    for (std::size_t scanned = 0; bits == 0; ++scanned) {
      DRT_ENSURE(scanned < kWords);
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    const std::size_t to = (w << 6) | std::countr_zero(bits);
    return static_cast<std::int64_t>((to - from) & kRingMask);
  }

  /// Bucket of the earliest far event; needs at least one.
  std::int64_t earliest_far_bucket() const {
    if (run_.empty()) return bucket_number(overflow_.front().at);
    if (overflow_.empty()) return bucket_number(run_.front().at);
    return bucket_number(std::min(run_.front().at, overflow_.front().at));
  }

  /// File an event into in-window bucket `b`.
  void place(std::int64_t b, pending_event ev) {
    ++wheel_count_;
    const auto i = ring_index(b);
    set_occupied(i, true);
    auto& slot = buckets_[i];
    if (b == cur_bno_ && active_sorted_) {
      // Rare: an event due inside the bucket currently being drained
      // (zero/short delays).  Keep the drained bucket sorted.
      slot.insert(std::upper_bound(slot.begin(), slot.end(), ev,
                                   later_first{}),
                  std::move(ev));
    } else {
      slot.push_back(std::move(ev));
    }
  }

  /// Sort the bucket the cursor just reached into descending (at, seq)
  /// order (minimum at the back).  Large buckets sort 24-byte
  /// (at, seq, index) keys and then apply the permutation with exactly
  /// one 64-byte event move each — sorting the events directly costs
  /// ~log(n) full-struct moves per event on the pop path.
  void sort_active(std::vector<pending_event>& slot) {
    if (slot.size() < 32) {
      std::sort(slot.begin(), slot.end(), later_first{});
      return;
    }
    keys_.clear();
    keys_.reserve(slot.size());
    for (std::uint32_t i = 0; i < slot.size(); ++i) {
      keys_.push_back({slot[i].at, slot[i].seq, i});
    }
    std::sort(keys_.begin(), keys_.end(), [](const sort_key& a,
                                             const sort_key& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    });
    scratch_.clear();
    scratch_.reserve(slot.size());
    for (const auto& k : keys_) scratch_.push_back(std::move(slot[k.idx]));
    slot.swap(scratch_);  // scratch_ keeps the old buffer for reuse
    scratch_.clear();
  }

  /// Move every far event the window now covers into its bucket.  The
  /// run and the heap drain one after the other: a bucket is sorted when
  /// the cursor reaches it, so arrival order inside it does not matter.
  void drain_far_into_window() {
    const auto end = window_end();
    while (!run_.empty() && bucket_number(run_.front().at) < end) {
      pending_event ev = run_.pop_front();
      place(std::max(bucket_number(ev.at), cur_bno_), std::move(ev));
    }
    while (!overflow_.empty() && bucket_number(overflow_.front().at) < end) {
      std::pop_heap(overflow_.begin(), overflow_.end(), later_first{});
      pending_event ev = std::move(overflow_.back());
      overflow_.pop_back();
      place(std::max(bucket_number(ev.at), cur_bno_), std::move(ev));
    }
  }

  struct sort_key {
    double at;
    std::uint64_t seq;
    std::uint32_t idx;
  };

  double width_;
  double inv_width_;
  std::vector<std::vector<pending_event>> buckets_;  ///< the ring
  std::array<std::uint64_t, kWords> occupied_{};  ///< bit i: bucket i non-empty
  std::vector<sort_key> keys_;            ///< sort_active scratch
  std::vector<pending_event> scratch_;    ///< sort_active scratch
  ordered_run run_;                       ///< far events pushed in order
  std::vector<pending_event> overflow_;  ///< other far events: min-heap
  std::int64_t cur_bno_ = 0;     ///< bucket number under the cursor
  bool active_sorted_ = false;   ///< cursor bucket sorted & draining
  std::size_t wheel_count_ = 0;  ///< events in buckets (not far)
  std::size_t size_ = 0;
};

}  // namespace drt::sim

#endif  // DRT_SIM_EVENT_QUEUE_H
