// The network model (DESIGN.md §7): the simulator consults one
// net::model on every send to decide a message's fate — deliver after
// some delay, drop, duplicate.
//
// The paper proves its guarantees over an idealized transport (§2.1):
// one uniform delay range and iid loss on every link.  A default
// model_config is exactly that.  On top of it the model carries what
// the experiments need beyond the paper: static duplication and
// reordering knobs, and the runtime faults the engine's partition /
// heal / degrade_links phases drive — partition groups with a later
// heal, and a latency/loss degradation ramp.
//
// Determinism contract: the model draws from the simulator's RNG stream
// in a fixed per-send order, so the (seed, config) pair pins every run
// bit-for-bit.  Per send: the partition cut (no draw), the loss
// Bernoulli only when loss > 0, one uniform delay draw, the degradation
// loss Bernoulli only while a degradation with loss is active, then the
// reorder and duplicate Bernoullis only when their knobs are set (a
// duplicate draws its lag).  At default knobs that is the loss
// Bernoulli and the delay draw alone, which is what keeps the golden
// trace hashes of tests/sim_determinism_test.cpp unchanged.
//
// Shard safety (DESIGN.md §8): every simulator owns its model and draws
// from its own RNG, so a model carries no cross-simulator state.
#ifndef DRT_NET_MODEL_H
#define DRT_NET_MODEL_H

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace drt::net {

/// The transport, as a plain value: it travels inside
/// sim::simulator_config and engine::scenario, so a run's network shape
/// is part of its reproducible identity.  Checked (util/expect.h) when
/// a model is built: delays ordered and non-negative, probabilities in
/// [0, 1], reorder_factor >= 1.
struct model_config {
  double min_delay = 0.5;  ///< per-message latency lower bound
  double max_delay = 1.5;  ///< per-message latency upper bound
  double loss = 0.0;       ///< iid drop probability per message
  double duplicate = 0.0;  ///< probability a delivered message is duplicated
  double reorder = 0.0;    ///< probability a message's delay is stretched
  double reorder_factor = 3.0;  ///< stretch multiplier for reordered sends
};

/// Fate of one message send, decided by the model at send time.
struct link_decision {
  bool deliver = true;       ///< false: the message never arrives
  bool partitioned = false;  ///< the drop was a partition cut, not loss
  sim::sim_time delay = 0.0; ///< latency when delivered
  /// >= 0: a duplicate copy arrives this long *after* the original
  /// (network-level duplication); < 0: no duplicate.
  sim::sim_time duplicate_lag = -1.0;
};

/// Why messages met their fate, kept next to the simulator's sim_metrics
/// (which count the outcomes themselves).
struct model_counters {
  std::uint64_t dropped = 0;      ///< random loss (iid or degradation)
  std::uint64_t partitioned = 0;  ///< blocked by an active partition
  std::uint64_t duplicated = 0;   ///< sends that grew a duplicate copy
  std::uint64_t reordered = 0;    ///< sends with a stretched delay
  std::uint64_t degraded = 0;     ///< sends under an active degradation
};

class model {
 public:
  explicit model(const model_config& config);

  const model_counters& counters() const { return counters_; }

  /// Decide the fate of one send at virtual time `now`, drawing from
  /// `rng` in the order of the determinism contract above.
  link_decision on_send(sim::process_id from, sim::process_id to,
                        sim::sim_time now, util::rng& rng);

  // ------------------------------------------------------- partitions
  /// Install a partition: processes in `side_b` form one side, everyone
  /// else (including processes added later) the other.  Messages across
  /// the cut are dropped and `allows` reports the cut to failure
  /// detectors.  Replaces any previous partition; an empty side heals.
  void partition(const std::vector<sim::process_id>& side_b);
  void heal() { side_b_.clear(); }
  bool partitioned() const { return !side_b_.empty(); }

  /// Reachability under the current partition (always true when none is
  /// active).  This is what makes a partitioned peer look dead to the
  /// overlay's failure detector.
  bool allows(sim::process_id from, sim::process_id to) const {
    return side_b_.empty() || on_side_b(from) == on_side_b(to);
  }

  // ------------------------------------------------------ degradation
  /// Ramp every link's latency multiplier from 1 to `latency_factor`
  /// and its loss from 0 to `extra_loss` over `ramp` virtual time
  /// starting at `start`, then hold until cleared.
  void degrade(sim::sim_time start, sim::sim_time ramp,
               double latency_factor, double extra_loss);
  void clear_degradation() { degrade_active_ = false; }

 private:
  bool on_side_b(sim::process_id id) const {
    return id < side_b_.size() && side_b_[id];
  }
  /// Ramp progress in [0, 1] at time `now`.
  double degrade_level(sim::sim_time now) const;

  model_config config_;
  model_counters counters_;

  std::vector<bool> side_b_;  // empty: no partition active

  bool degrade_active_ = false;
  sim::sim_time degrade_start_ = 0.0;
  sim::sim_time degrade_ramp_ = 0.0;
  double degrade_latency_factor_ = 1.0;
  double degrade_extra_loss_ = 0.0;
};

}  // namespace drt::net

#endif  // DRT_NET_MODEL_H
