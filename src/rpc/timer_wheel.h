// Hierarchical timer wheel for the service-mode event loop (DESIGN.md §10).
//
// Four levels of 64 slots each give an exact-fire horizon of 64^4 ticks
// (~4.6 hours at 1 ms/tick); deadlines past the horizon wait in a min-heap
// and drop into the wheel when it laps — the same overflow-heap trick the
// simulator's calendar queue uses (sim/event_queue.h), so the two
// schedulers share their pathology profile: O(1) schedule/cancel/fire in
// the common case, with the heap absorbing the far tail.
//
// Semantics the unit tests pin:
//  * timers fire exactly at their deadline tick, never early, and only
//    late if advance() itself is called late (the loop's wait is bounded
//    by next_wake(), so late means the host slept — wall-clock reality,
//    not wheel error);
//  * same-tick timers fire in schedule order;
//  * cancel() is exact: a cancelled timer never fires, including when
//    cancelled by another callback on the same tick;
//  * periodic timers reschedule themselves after each firing, skipping
//    missed periods instead of bursting to catch up (a stabilizer that
//    slept through 3 periods should run once, not 3 times).
//
// Single-threaded by design, like the loop that owns it.
#ifndef DRT_RPC_TIMER_WHEEL_H
#define DRT_RPC_TIMER_WHEEL_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/expect.h"

namespace drt::rpc {

using timer_id = std::uint64_t;
inline constexpr timer_id kNoTimer = 0;

class timer_wheel {
 public:
  static constexpr std::size_t kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kLevels = 4;
  /// Deadlines within now + kHorizon ticks live in the wheel proper.
  static constexpr std::uint64_t kHorizon = std::uint64_t{1}
                                            << (kSlotBits * kLevels);
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  explicit timer_wheel(std::uint64_t start_tick = 0) : now_(start_tick) {}

  timer_wheel(const timer_wheel&) = delete;
  timer_wheel& operator=(const timer_wheel&) = delete;

  std::uint64_t now() const { return now_; }
  std::size_t pending() const { return entries_.size(); }

  /// One-shot timer at absolute tick `deadline` (a deadline at or before
  /// now fires on the next advanced tick).
  timer_id schedule(std::uint64_t deadline, std::function<void()> fn) {
    return insert(deadline, 0, std::move(fn));
  }

  /// Periodic timer: first fires at `first`, then every `period` ticks.
  timer_id schedule_periodic(std::uint64_t first, std::uint64_t period,
                             std::function<void()> fn) {
    DRT_EXPECT(period > 0);
    return insert(first, period, std::move(fn));
  }

  /// True when the id was pending (it will not fire); callable from
  /// within a timer callback, including on the firing tick.
  bool cancel(timer_id id) { return entries_.erase(id) != 0; }

  /// The earliest tick at which advance() may have work to do — a due
  /// timer or a cascade that could surface one.  kNever when idle.  The
  /// event loop bounds its wait with this, so an idle wheel costs no
  /// wakeups.
  std::uint64_t next_wake() const {
    std::uint64_t best = kNever;
    for (std::size_t level = 0; level < kLevels; ++level) {
      const std::uint64_t base = now_ >> (kSlotBits * level);
      // A level-l entry is at most one level-l lap ahead (place() would
      // have used level l+1 otherwise), so one full wrap covers it.
      for (std::uint64_t p = base + 1; p <= base + kSlots; ++p) {
        if (!wheel_[level][p & (kSlots - 1)].empty()) {
          best = std::min(best, p << (kSlotBits * level));
          break;
        }
      }
    }
    if (!overflow_.empty()) {
      const std::uint64_t boundary = ((now_ >> (kSlotBits * kLevels)) + 1)
                                     << (kSlotBits * kLevels);
      best = std::min(best, boundary);
    }
    return best;
  }

  /// Advance to tick `to`, firing everything due on the way; returns the
  /// number of callbacks fired.  Jumps between interesting ticks, so
  /// advancing an idle wheel across hours is O(levels * slots).
  std::size_t advance(std::uint64_t to) {
    std::size_t fired = 0;
    if (to > target_) target_ = to;
    while (now_ < to) {
      const std::uint64_t next = next_wake();
      if (next > to) {
        now_ = to;
        break;
      }
      now_ = next;
      fired += process_tick();
    }
    return fired;
  }

 private:
  struct entry {
    std::uint64_t deadline = 0;
    std::uint64_t period = 0;  ///< 0 = one-shot
    std::function<void()> fn;
  };

  timer_id insert(std::uint64_t deadline, std::uint64_t period,
                  std::function<void()> fn) {
    DRT_EXPECT(fn != nullptr);
    const timer_id id = next_id_++;
    entries_.emplace(id, entry{deadline, period, std::move(fn)});
    place(id, deadline);
    return id;
  }

  /// File `id` by deadline relative to now_.  Cancelled ids linger in
  /// slots until their tick and are skipped then (the entries_ map is
  /// the source of truth), so cancel stays O(1).
  void place(timer_id id, std::uint64_t deadline) {
    const std::uint64_t eff = deadline > now_ ? deadline : now_ + 1;
    const std::uint64_t delta = eff - now_;
    if (delta >= kHorizon) {
      overflow_.push_back({deadline, id});
      std::push_heap(overflow_.begin(), overflow_.end(), heap_later);
      return;
    }
    std::size_t level = 0;
    while (delta >= (std::uint64_t{1} << (kSlotBits * (level + 1)))) ++level;
    wheel_[level][(eff >> (kSlotBits * level)) & (kSlots - 1)].push_back(id);
  }

  /// Process the tick now_: cascade every level whose lap ends here
  /// (highest first, so entries can sift down through multiple levels in
  /// one tick), drain the overflow heap at horizon laps, then fire the
  /// level-0 slot.  Entries that land due during a cascade fire before
  /// the level-0 residents — which is schedule order, since only an
  /// earlier schedule can sit at a higher level for the same deadline.
  std::size_t process_tick() {
    scratch_due_.clear();
    for (std::size_t level = kLevels - 1; level >= 1; --level) {
      if (now_ % (std::uint64_t{1} << (kSlotBits * level)) == 0) {
        auto& bucket =
            wheel_[level][(now_ >> (kSlotBits * level)) & (kSlots - 1)];
        scratch_ids_.assign(bucket.begin(), bucket.end());
        bucket.clear();
        sift(scratch_ids_);
      }
    }
    if (now_ % kHorizon == 0) {
      scratch_ids_.clear();
      while (!overflow_.empty() &&
             overflow_.front().first < now_ + kHorizon) {
        std::pop_heap(overflow_.begin(), overflow_.end(), heap_later);
        scratch_ids_.push_back(overflow_.back().second);
        overflow_.pop_back();
      }
      sift(scratch_ids_);
    }
    {
      auto& bucket = wheel_[0][now_ & (kSlots - 1)];
      scratch_ids_.assign(bucket.begin(), bucket.end());
      bucket.clear();
      sift(scratch_ids_);
    }

    std::size_t fired = 0;
    // scratch_due_ is stable across callbacks: a callback scheduling a
    // new timer goes through place(), never this list.
    for (std::size_t i = 0; i < scratch_due_.size(); ++i) {
      const timer_id id = scratch_due_[i];
      auto it = entries_.find(id);
      if (it == entries_.end()) continue;  // cancelled after going due
      if (it->second.period == 0) {
        auto fn = std::move(it->second.fn);
        entries_.erase(it);
        fn();
        ++fired;
        continue;
      }
      // Periodic: compute the next deadline before running the callback,
      // then re-place only if the callback did not cancel it.  Skipping
      // relative to the advance *target* (not the firing tick) is what
      // implements catch-up-free semantics: one advance() call that
      // jumps several periods fires the timer once and lands the next
      // deadline past the jump.
      auto& e = it->second;
      const std::uint64_t horizon = now_ > target_ ? now_ : target_;
      while (e.deadline <= horizon) e.deadline += e.period;
      auto fn = e.fn;  // the callback may erase the entry under us
      fn();
      ++fired;
      auto again = entries_.find(id);
      if (again != entries_.end()) place(id, again->second.deadline);
    }
    return fired;
  }

  /// Route collected ids: due ones (deadline <= now_) queue for firing
  /// in collection order, live future ones re-file, cancelled ones drop.
  void sift(const std::vector<timer_id>& ids) {
    for (const timer_id id : ids) {
      auto it = entries_.find(id);
      if (it == entries_.end()) continue;
      if (it->second.deadline <= now_) {
        scratch_due_.push_back(id);
      } else {
        place(id, it->second.deadline);
      }
    }
  }

  static bool heap_later(const std::pair<std::uint64_t, timer_id>& a,
                         const std::pair<std::uint64_t, timer_id>& b) {
    return a.first > b.first;  // min-heap on deadline
  }

  std::uint64_t now_;
  std::uint64_t target_ = 0;  ///< current advance() destination
  timer_id next_id_ = 1;
  std::unordered_map<timer_id, entry> entries_;
  std::array<std::array<std::vector<timer_id>, kSlots>, kLevels> wheel_;
  std::vector<std::pair<std::uint64_t, timer_id>> overflow_;
  std::vector<timer_id> scratch_ids_;
  std::vector<timer_id> scratch_due_;
};

}  // namespace drt::rpc

#endif  // DRT_RPC_TIMER_WHEEL_H
