// Deterministic discrete-event simulator: the distributed-system substrate
// the DR-tree overlay runs on.
//
// The paper's system model (§2.1) is an asynchronous message-passing
// network of processes that join, leave, crash, and suffer transient
// state corruption.  This engine models exactly that: virtual time, typed
// messages delivered after a per-link delay, optional message loss,
// one-shot timers (a process chains them into the paper's "periodically
// triggered" stabilization events), and crash/restart of processes.
// Everything is driven by one seeded RNG, so every experiment is
// bit-reproducible.
//
// The messaging core is allocation-free on the hot path: payloads travel
// in typed sim::envelope values (sim/message.h) and the scheduler is a
// two-level calendar queue (sim/event_queue.h) with O(1) amortized
// schedule/pop.  Messages and short timers live in its bucket ring;
// timers armed a stabilize period ahead live beyond it, in an ordered
// run when they arrive in time order (a re-armed pass) and in a heap
// otherwise (a fresh random phase).  Event execution follows the strict
// total order (at, seq) — see the determinism contract in DESIGN.md.
//
// Which processes are alive is recorded once, in a bitmap with O(log N)
// rank/select (live_index), so membership queries never scan processes.
//
// Message fate (latency, loss, partition cuts, duplication) is decided
// by the simulator's net::model on the send path (DESIGN.md §7).  At
// default knobs it is the paper's transport: one uniform delay range and
// iid loss on every link.
#ifndef DRT_SIM_SIMULATOR_H
#define DRT_SIM_SIMULATOR_H

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/model.h"
#include "sim/event_queue.h"
#include "sim/message.h"
#include "util/expect.h"
#include "util/rng.h"

namespace drt::sim {

class simulator;

/// A process: owns local state, reacts to messages and timers.  Handlers
/// run atomically (the scheduler interleaves handler executions, never
/// preempts one), matching the locally-atomic step semantics the paper's
/// proofs assume.
class process {
 public:
  virtual ~process() = default;

  process_id id() const { return id_; }
  simulator& sim() const { return *sim_; }

  /// Called once when the process is added to the simulation.
  virtual void on_start() {}
  /// A message from `from` (which may have crashed since sending).  Read
  /// the payload with msg.visit<Payload>() — nullptr for payload-less
  /// messages, and the cast is tag-checked (aborts on type confusion).
  virtual void on_message(process_id from, std::uint64_t type,
                          const envelope& msg) = 0;
  /// A timer registered via simulator::schedule_timer or
  /// schedule_quiet_timer fired.
  virtual void on_timer(std::uint64_t /*timer_type*/) {}
  /// The process crashed (uncontrolled departure).  State is NOT cleared
  /// automatically: a restarted process resumes with stale state, which is
  /// precisely the transient-fault model self-stabilization handles.
  virtual void on_crash() {}

 private:
  friend class simulator;
  process_id id_ = kNoProcess;
  simulator* sim_ = nullptr;
  /// Bumped by every restart; quiet timers are stamped with it.
  std::uint64_t incarnation_ = 0;
};

/// Which process ids are alive: one bit per id, plus a Fenwick tree over
/// the per-word popcounts, so counting, ranking and selecting live ids
/// cost O(1), O(log N) and O(log N) instead of a scan over every process.
class live_index {
 public:
  /// Extend the id space by one id, alive.
  void add() {
    if (ids_ % 64 == 0) {
      // Fenwick append: node i covers words (i - lowbit(i), i], all of
      // them already present except the new (empty) one.
      const std::size_t i = words_.size() + 1;
      words_.push_back(0);
      tree_.push_back(static_cast<std::uint32_t>(
          words_before(i - 1) - words_before(i - lowbit(i))));
    }
    set(static_cast<std::uint32_t>(ids_++), true);
  }

  bool test(std::uint32_t id) const {
    return id < ids_ && ((words_[id >> 6] >> (id & 63)) & 1) != 0;
  }

  void set(std::uint32_t id, bool live) {
    DRT_EXPECT(id < ids_ && test(id) != live);
    words_[id >> 6] ^= std::uint64_t{1} << (id & 63);
    for (std::size_t i = (id >> 6) + 1; i < tree_.size(); i += lowbit(i)) {
      tree_[i] = live ? tree_[i] + 1 : tree_[i] - 1;
    }
    count_ = live ? count_ + 1 : count_ - 1;
  }

  std::size_t count() const { return count_; }

  /// Live ids below `id`.
  std::size_t rank(std::uint32_t id) const {
    DRT_EXPECT(id <= ids_);
    const std::size_t w = id >> 6;
    const std::uint64_t low = (std::uint64_t{1} << (id & 63)) - 1;
    return words_before(w) +
           (w < words_.size()
                ? static_cast<std::size_t>(std::popcount(words_[w] & low))
                : 0);
  }

  /// The k-th live id (0-based) in id order.
  std::uint32_t select(std::size_t k) const {
    DRT_EXPECT(k < count_);
    // Fenwick descent to the word holding the k-th set bit.
    std::size_t w = 0;
    for (std::size_t step = std::bit_floor(words_.size()); step > 0;
         step >>= 1) {
      if (w + step <= words_.size() && tree_[w + step] <= k) {
        w += step;
        k -= tree_[w];
      }
    }
    // Then halve the word down to the bit, one popcount per halving.
    std::uint64_t bits = words_[w];
    std::uint32_t pos = 0;
    for (unsigned width = 32; width > 0; width >>= 1) {
      const std::uint64_t low = bits & ((std::uint64_t{1} << width) - 1);
      const auto c = static_cast<std::size_t>(std::popcount(low));
      if (k < c) {
        bits = low;
      } else {
        k -= c;
        bits >>= width;
        pos += width;
      }
    }
    return static_cast<std::uint32_t>(w * 64 + pos);
  }

  /// Visit live ids in increasing order.  The bitmap is re-read after
  /// every visit, so a visitor that kills or revives a later id is seen.
  /// A bool-returning visitor stops the walk by returning false.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        const auto id = static_cast<std::uint32_t>(w * 64 + b);
        if constexpr (std::is_void_v<std::invoke_result_t<Fn&,
                                                           std::uint32_t>>) {
          fn(id);
        } else {
          if (!fn(id)) return;
        }
        bits = b == 63 ? 0 : words_[w] & (~std::uint64_t{0} << (b + 1));
      }
    }
  }

 private:
  static std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

  /// Live ids in words [0, w): a Fenwick prefix sum.
  std::size_t words_before(std::size_t w) const {
    std::size_t n = 0;
    for (; w > 0; w &= w - 1) n += tree_[w];
    return n;
  }

  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> tree_{0};  ///< 1-based; tree_[0] unused
  std::size_t ids_ = 0;
  std::size_t count_ = 0;
};

struct simulator_config {
  std::uint64_t seed = 1;
  /// The transport; checked at simulator construction.
  net::model_config link{};
};

/// Counters the experiment harnesses read.
struct sim_metrics {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;     ///< random loss (any model)
  std::uint64_t messages_partitioned = 0; ///< cut by the active partition
  std::uint64_t messages_duplicated = 0;  ///< extra copies the network grew
  std::uint64_t messages_to_dead = 0;     ///< purged at crash or sent to dead
  std::uint64_t timers_fired = 0;
  std::uint64_t handler_steps = 0;  ///< total handler executions
};

class simulator {
 public:
  explicit simulator(simulator_config config = {});
  ~simulator();

  simulator(const simulator&) = delete;
  simulator& operator=(const simulator&) = delete;

  // ----------------------------------------------------------- topology
  /// Register a process; it becomes alive and receives on_start().
  process_id add_process(std::unique_ptr<process> p);

  /// Uncontrolled departure: the process stops receiving messages/timers.
  /// Messages already in flight *to* it are purged from the queue and
  /// counted as messages_to_dead; timers stay queued (a one-shot timer
  /// still fires if the process has restarted by its due time).
  void crash(process_id id);

  /// Restart a crashed process (keeps its — possibly stale — state).
  /// Starts a new incarnation: quiet timers the old one armed never fire.
  void restart(process_id id);

  bool is_alive(process_id id) const { return live_.test(id); }
  process& get(process_id id) {
    DRT_EXPECT(id < processes_.size());
    return *processes_[id];
  }
  const process& get(process_id id) const {
    DRT_EXPECT(id < processes_.size());
    return *processes_[id];
  }

  /// Visit every live process id without materializing a vector (the
  /// per-tick accounting loops in the overlay/harness run on this).
  /// The visitor may return void, or bool with false meaning "stop
  /// early" (selection walks shouldn't scan past their target).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    live_.for_each(std::forward<Fn>(fn));
  }
  std::size_t live_count() const { return live_.count(); }
  /// Live ids below `id` (O(log N)).
  std::size_t live_before(process_id id) const { return live_.rank(id); }
  /// The k-th live id in id order, k < live_count() (O(log N)).
  process_id nth_live(std::size_t k) const { return live_.select(k); }
  std::size_t process_count() const { return processes_.size(); }

  // ----------------------------------------------------------- messaging
  /// Send message `type` with payload `body` (may be omitted).  The net
  /// model decides the fate: delivery delay, random loss, partition
  /// cuts, duplication.  Payloads up to
  /// envelope::kMaxPooledPayload travel in slab-recycled pool blocks —
  /// allocation-free once the simulation reaches a steady state.
  template <typename Payload>
  void send(process_id from, process_id to, std::uint64_t type,
            Payload body) {
    post_message(from, to, type, envelope::wrap(pool_, std::move(body)));
  }
  void send(process_id from, process_id to, std::uint64_t type);

  /// Send only the initialized prefix of a fixed-capacity payload (see
  /// envelope::wrap_prefix): a k-event batch rides one block sized to the
  /// k events actually present, not to the struct's full capacity.
  template <typename Payload>
  void send_prefix(process_id from, process_id to, std::uint64_t type,
                   const Payload& body, std::size_t payload_bytes) {
    post_message(from, to, type,
                 envelope::wrap_prefix(pool_, body, payload_bytes));
  }

  /// The payload pool backing pooled sends (slab/footprint accounting).
  const payload_pool& pool() const { return pool_; }

  // ------------------------------------------------------ network model
  const net::model& net_model() const { return net_; }

  /// Partition the network: `side_b` on one side, everyone else on the
  /// other.  Cross-cut messages already in flight are purged (a cut
  /// severs links, not just future sends) and counted as partitioned;
  /// subsequent cross-cut sends are dropped the same way.  Returns false,
  /// installing and purging nothing, when any id names no process.
  bool partition(const std::vector<process_id>& side_b);
  /// Remove the active partition (if any).
  void heal_partition() { net_.heal(); }
  /// Ramp all links to `latency_factor` x latency and `extra_loss` loss
  /// over `ramp` virtual time starting now, then hold.
  void degrade_links(double latency_factor, double extra_loss,
                     sim_time ramp) {
    net_.degrade(now_, ramp, latency_factor, extra_loss);
  }
  void clear_degradation() { net_.clear_degradation(); }

  /// Reachability under the active partition (true when none): the
  /// failure-detector oracle overlay protocols consult.  A partitioned
  /// peer is indistinguishable from a crashed one.
  bool reachable(process_id from, process_id to) const {
    return net_.allows(from, to);
  }

  /// Trace hook: invoked at every message *delivery* (after the latency,
  /// before the handler).  For logging/analysis tooling; pass nullptr to
  /// disable.
  struct trace_event {
    sim_time at = 0.0;
    process_id from = kNoProcess;
    process_id to = kNoProcess;
    std::uint64_t type = 0;
  };
  using trace_hook = std::function<void(const trace_event&)>;
  void set_trace(trace_hook hook) { trace_ = std::move(hook); }

  /// One-shot timer for `target` after `delay`.
  void schedule_timer(process_id target, std::uint64_t timer_type,
                      sim_time delay);
  /// One-shot timer that does NOT count toward pending_work():
  /// run_steps()-style quiescence ignores it.  It belongs to the target's
  /// current incarnation: if the target is dead, or has restarted since,
  /// when it comes due, it is dropped before anything is counted.  The
  /// stabilizer arms its future passes with these, so an armed pass never
  /// keeps settle() spinning and a restart never inherits a stale one.
  void schedule_quiet_timer(process_id target, std::uint64_t timer_type,
                            sim_time delay);

  // ----------------------------------------------------------- execution
  /// Run until the event queue drains or `until` virtual time is reached.
  void run_until(sim_time until);

  /// Process events — executing any quiet timers that come due along the
  /// way — until no pending work (messages, one-shot timers) remains
  /// queued, or the step budget is exhausted.  Returns the number of
  /// handler steps taken.  This is how experiments "drain" the protocol
  /// to quiescence.
  std::uint64_t run_steps(std::uint64_t max_steps);

  /// Pending-work events currently queued (messages + one-shot timers;
  /// quiet timers excluded).
  std::size_t pending_work() const { return pending_work_; }

  /// Virtual time of the earliest queued event of any kind, or +infinity
  /// when the queue is empty.  The sharded kernel peeks this to skip
  /// dispatching workers at shards with nothing due inside a window.
  sim_time next_event_time();

  sim_time now() const { return now_; }
  const sim_metrics& metrics() const { return metrics_; }
  util::rng& rng() { return rng_; }
  const simulator_config& config() const { return config_; }

 private:
  void post_message(process_id from, process_id to, std::uint64_t type,
                    envelope msg);
  void push_event(pending_event ev);
  bool pop_and_execute();

  simulator_config config_;
  net::model net_;
  util::rng rng_;
  sim_time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_work_ = 0;
  sim_metrics metrics_;
  trace_hook trace_;
  std::vector<std::unique_ptr<process>> processes_;
  live_index live_;  ///< the one record of which processes are alive
  payload_pool pool_;
  calendar_queue queue_;
};

}  // namespace drt::sim

#endif  // DRT_SIM_SIMULATOR_H
