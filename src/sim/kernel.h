// Sharded simulator kernel: N independent event loops advanced in
// lockstep, with cross-shard traffic exchanged only at barriers.
//
// One drt::sim::simulator is one shard — its own calendar event_queue,
// payload_pool, RNG stream, and processes.  The kernel owns no
// simulators; callers attach them (the sharded overlay backend attaches
// one dr_overlay per shard) and the kernel drives them:
//
//   * settle()   — drain every shard to local quiescence, delivering
//     buffered cross-shard injections at each barrier, until no shard
//     has pending work and no injection is buffered.
//   * advance(dt) — run every shard forward dt of virtual time in
//     fixed-width windows; injections are delivered at window starts.
//
// Determinism argument (DESIGN.md §8): each shard's execution between
// two barriers is a function of (its own state, the injections delivered
// at the last barrier) only — shards never touch each other's state
// mid-pass.  Injections are delivered in a fixed order (destination
// shard ascending, then post order), so for a fixed shard count the
// whole run is bit-reproducible regardless of whether passes run
// sequentially or on worker threads.  With one shard, settle() and
// advance() delegate to run_steps()/run_until() verbatim, so kernel(1)
// reproduces the single-loop golden-trace hashes exactly.
#ifndef DRT_SIM_KERNEL_H
#define DRT_SIM_KERNEL_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"

namespace drt::sim {

struct kernel_config {
  std::size_t shards = 1;
  /// Barrier width for advance(): virtual time each shard runs between
  /// injection-exchange points.  Smaller windows mean more barriers but
  /// never change a run's result (injections are only created between
  /// passes, so any window width delivers them at the same pass edge).
  sim_time window = 10.0;
  /// Run shard passes on one std::thread per shard.  Results are
  /// bit-identical to the sequential schedule (see header comment); on a
  /// single core this only buys contention, so it is off by default.
  bool parallel = false;
};

/// Cross-shard traffic counters; per-shard message counts stay in each
/// shard's own sim_metrics.
struct kernel_metrics {
  std::uint64_t cross_messages = 0;  ///< injections posted
  std::uint64_t cross_bytes = 0;     ///< payload bytes carried by them
  std::uint64_t windows = 0;         ///< advance() windows executed
  std::uint64_t barriers = 0;        ///< injection-exchange points
  /// Shard-windows where the shard had no event due and was advanced
  /// inline (no worker dispatched).  At a stabilize sweep_stride K > 1 a
  /// quiescent shard's timers park K periods out, so this is the
  /// mechanism by which clean shards cost ~nothing per round.
  std::uint64_t shard_windows_idle = 0;
};

class kernel {
 public:
  explicit kernel(kernel_config config = {});

  kernel(const kernel&) = delete;
  kernel& operator=(const kernel&) = delete;

  std::size_t shards() const { return sims_.size(); }

  /// Attach the simulator driving shard `i`.  The kernel does not own
  /// it; the caller keeps it alive for the kernel's lifetime.
  void attach(std::size_t shard, simulator& sim);

  simulator& shard(std::size_t i);

  /// Buffer a cross-shard injection from `src` to `dst`: `deliver` runs
  /// against dst's simulator at the next barrier, before dst's pass.
  /// `bytes` is the logical payload size (accounting only).  Posts are
  /// orchestrator-side: call between passes, never from inside a
  /// process handler (shard passes must stay state-disjoint).
  void post(std::size_t src, std::size_t dst, std::uint64_t bytes,
            std::function<void(simulator&)> deliver);

  /// Drain every shard to quiescence (see header).  Returns total
  /// handler steps across shards; `max_steps` is the per-shard budget
  /// per barrier round.
  std::uint64_t settle(std::uint64_t max_steps = 1000000);

  /// Advance every shard by `dt` virtual time in lockstep windows.
  void advance(sim_time dt);

  const kernel_metrics& metrics() const { return metrics_; }

 private:
  /// Deliver all buffered injections (dst ascending, post order within a
  /// dst).  Returns true when anything was delivered.
  bool flush();
  /// Run fn(shard_index) for every shard, on worker threads when
  /// configured.  fn must touch only that shard's simulator.
  void run_pass(const std::function<void(std::size_t)>& fn);
  /// Same, but only for the listed shards (advance() dispatches workers
  /// only where an event is actually due inside the window).
  void run_pass_on(const std::vector<std::size_t>& idx,
                   const std::function<void(std::size_t)>& fn);

  struct injection {
    std::uint64_t bytes = 0;
    std::function<void(simulator&)> deliver;
  };

  kernel_config config_;
  std::vector<simulator*> sims_;
  std::vector<std::vector<injection>> inbox_;  ///< per destination shard
  std::vector<std::size_t> active_scratch_;    ///< advance() due-shard list
  kernel_metrics metrics_;
};

}  // namespace drt::sim

#endif  // DRT_SIM_KERNEL_H
