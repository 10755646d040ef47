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
//    bucket is almost always complete by the time it is sorted);
//  * an overflow min-heap for events beyond the window (stabilize timers
//    armed a whole period ahead).  Each time the window slides, events
//    that fell inside it migrate to their bucket.
//
// Determinism contract: pop() returns events in the *strict total order*
// (at, seq) — exactly the order the seed binary heap produced (seq is
// unique, so the order is unique).  Bucketing never reorders:
// bucket_number(at) is one monotonic function of `at`, all events in
// bucket b precede all events in buckets > b and everything in overflow,
// and within the active bucket a full (at, seq) sort decides.  The
// golden-hash test in tests/sim_determinism_test.cpp pins this, bit for
// bit, against traces recorded with the seed scheduler.
#ifndef DRT_SIM_EVENT_QUEUE_H
#define DRT_SIM_EVENT_QUEUE_H

#include <algorithm>
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
    if (b >= cur_bno_ + static_cast<std::int64_t>(kBuckets)) {
      overflow_.push_back(std::move(ev));
      std::push_heap(overflow_.begin(), overflow_.end(), later_first{});
      return;
    }
    ++wheel_count_;
    auto& slot = buckets_[ring_index(b)];
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

  /// The (at, seq)-minimal event, or nullptr when empty.  Advances the
  /// cursor over empty buckets and sorts the active bucket on first
  /// contact; pop() consumes what peek() exposes.
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
        if (overflow_.empty()) return nullptr;  // unreachable: size_ > 0
        // Wheel drained: jump the window straight to the earliest
        // overflow event instead of stepping bucket by bucket.
        cur_bno_ = bucket_number(overflow_.front().at);
      } else {
        ++cur_bno_;
      }
      drain_overflow_into_window();
    }
  }

  pending_event pop() {
    pending_event* top = peek();
    DRT_EXPECT(top != nullptr);
    pending_event ev = std::move(*top);
    buckets_[ring_index(cur_bno_)].pop_back();
    --wheel_count_;
    --size_;
    return ev;
  }

  /// Remove every event matching `pred` (crash-time dead-letter purge).
  /// Keeps relative order of survivors, so the active bucket stays
  /// sorted.  Returns the number removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t removed = 0;
    for (auto& slot : buckets_) {
      const auto it = std::remove_if(slot.begin(), slot.end(), pred);
      const auto n = static_cast<std::size_t>(slot.end() - it);
      slot.erase(it, slot.end());
      removed += n;
      wheel_count_ -= n;
    }
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

  /// "Less" for max-heap/descending use: the *later* event is smaller,
  /// so sorted vectors keep the earliest event at the back and
  /// std::push_heap keeps it at the front.
  struct later_first {
    bool operator()(const pending_event& a, const pending_event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Monotonic in `at` (positive multiply, then truncation): an event can
  /// never be assigned a strictly earlier bucket than any event with a
  /// smaller timestamp, which is what makes per-bucket ordering global.
  std::int64_t bucket_number(sim_time at) const {
    return static_cast<std::int64_t>(at * inv_width_);
  }

  std::size_t ring_index(std::int64_t bno) const {
    return static_cast<std::size_t>(bno) & kRingMask;
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

  void drain_overflow_into_window() {
    const auto window_end = cur_bno_ + static_cast<std::int64_t>(kBuckets);
    while (!overflow_.empty() &&
           bucket_number(overflow_.front().at) < window_end) {
      std::pop_heap(overflow_.begin(), overflow_.end(), later_first{});
      pending_event ev = std::move(overflow_.back());
      overflow_.pop_back();
      std::int64_t b = bucket_number(ev.at);
      if (b < cur_bno_) b = cur_bno_;
      ++wheel_count_;
      buckets_[ring_index(b)].push_back(std::move(ev));
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
  std::vector<sort_key> keys_;            ///< sort_active scratch
  std::vector<pending_event> scratch_;    ///< sort_active scratch
  std::vector<pending_event> overflow_;  ///< min-(at,seq) binary heap
  std::int64_t cur_bno_ = 0;     ///< bucket number under the cursor
  bool active_sorted_ = false;   ///< cursor bucket sorted & draining
  std::size_t wheel_count_ = 0;  ///< events in buckets (not overflow)
  std::size_t size_ = 0;
};

}  // namespace drt::sim

#endif  // DRT_SIM_EVENT_QUEUE_H
