// The unified experiment backend interface (DESIGN.md §6).
//
// The paper's claims are all *dynamic* — stabilization under churn,
// crashes, and corruption — so every system under test is driven through
// one dynamic-operations interface: subscribe, unsubscribe, crash,
// publish, settle.  Adapters exist for the DR-tree overlay (which the
// broker façade and drtd host as well), drtd over sockets, and the four
// static baselines of §3.1/§4 (which get honest incremental-rebuild
// semantics: every membership change rebuilds the structure from the
// surviving subscription set).
//
// Not every backend can do everything — a containment tree has no notion
// of an uncontrolled crash, a flooding mesh never needs stabilization
// rounds — so each backend declares a capability mask and the scenario
// runner skips (and records as skipped) the phases a backend cannot
// honestly execute.
#ifndef DRT_ENGINE_BACKEND_H
#define DRT_ENGINE_BACKEND_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "spatial/types.h"

namespace drt::engine {

/// Identifies one live subscription inside a backend.  For the overlay
/// backends this is the peer id; baselines allocate their own ids.
using sub_id = std::uint64_t;
inline constexpr sub_id kNoSub = static_cast<sub_id>(-1);

/// What a backend can honestly do (see DESIGN.md §6).  `subscribe` and
/// `publish` are unconditional: a pub/sub system that cannot do either is
/// not a backend.
enum capability : std::uint32_t {
  cap_unsubscribe = 1u << 0,  ///< dynamic controlled departure
  cap_crash       = 1u << 1,  ///< uncontrolled departure (silent)
  cap_restart     = 1u << 2,  ///< revive a crashed sub with stale state
  cap_corruption  = 1u << 3,  ///< transient memory-corruption faults
  cap_stabilize   = 1u << 4,  ///< periodic repair rounds do real work
  cap_partition   = 1u << 5,  ///< network partitions with later heal
  cap_degrade     = 1u << 6,  ///< per-link degradation ramps
};
using capability_mask = std::uint32_t;

/// Outcome of one publication, normalized across backends: accuracy is
/// always counted against brute-force ground truth over the live
/// subscription population.
struct delivery_report {
  std::size_t interested = 0;       ///< |{s live : filter_s ∋ e}|
  std::size_t delivered = 0;        ///< distinct subscriptions reached
  std::size_t false_positives = 0;  ///< delivered but not interested
  std::size_t false_negatives = 0;  ///< interested but not delivered
  std::uint64_t messages = 0;       ///< network messages spent
  std::size_t max_hops = 0;         ///< longest delivery path
};

/// Structural snapshot of the backend, normalized across systems.
struct backend_shape {
  std::size_t population = 0;     ///< live subscriptions
  std::size_t height = 0;         ///< longest root-to-leaf path (0 if flat)
  std::size_t max_degree = 0;     ///< highest per-node neighbor/child count
  double avg_degree = 0.0;
  std::size_t routing_state = 0;  ///< total routing entries stored
};

/// Monotonic cost counters; the runner records per-phase deltas.
/// Backends without a stabilizer leave the stabilize_* fields at their
/// defaults, so those phases record 0 (not absent) in the metrics.
struct backend_counters {
  std::uint64_t messages = 0;  ///< network messages spent so far (total)
  std::uint64_t rebuilds = 0;  ///< full structure rebuilds (baselines)
  std::uint64_t stabilize_visited = 0;  ///< stabilize passes that ran
  std::uint64_t stabilize_skipped = 0;  ///< ticks clean peers skipped
};

class backend {
 public:
  virtual ~backend() = default;

  virtual std::string name() const = 0;
  virtual capability_mask capabilities() const = 0;
  bool can(capability c) const { return (capabilities() & c) != 0; }

  // -------------------------------------------------------- membership
  /// Register a filter; the subscription becomes live immediately (the
  /// backend settles any join traffic before returning).  Returns kNoSub,
  /// registering nothing, when the backend refuses the filter (the
  /// overlay refuses a NaN bound and an empty box, any lo > hi) or cannot
  /// reach its system.
  virtual sub_id subscribe(const spatial::box& filter) = 0;

  /// Controlled departure.  Returns false when the id is unknown/dead or
  /// the backend lacks cap_unsubscribe.
  virtual bool unsubscribe(sub_id s) = 0;

  /// Uncontrolled departure (cap_crash).  The subscription disappears
  /// silently; repair is the stabilizer's job.
  virtual bool crash(sub_id s) { (void)s; return false; }

  /// Revive a crashed subscription with its stale state (cap_restart).
  virtual bool restart(sub_id s) { (void)s; return false; }

  /// Scramble protocol state at the given per-variable rate
  /// (cap_corruption); returns the number of mutations performed.
  virtual std::size_t corrupt(double rate, std::uint64_t seed) {
    (void)rate; (void)seed; return 0;
  }

  // --------------------------------------------------- network dynamics
  /// Partition the network (cap_partition): subscriptions in `side_b`
  /// against everyone else.  Cross-cut traffic drops and each side's
  /// failure detectors treat the other as dead until heal().
  virtual bool partition(const std::vector<sub_id>& side_b) {
    (void)side_b; return false;
  }

  /// Remove the active partition (cap_partition).
  virtual bool heal() { return false; }

  /// Ramp all links to latency_factor x latency and extra_loss stacked
  /// loss over `ramp_rounds` stabilization periods of virtual time,
  /// then hold (cap_degrade).
  virtual bool degrade_links(double latency_factor, double extra_loss,
                             double ramp_rounds) {
    (void)latency_factor; (void)extra_loss; (void)ramp_rounds;
    return false;
  }

  // ------------------------------------------------------------ access
  virtual bool alive(sub_id s) const = 0;

  /// Live subscription ids in a stable, backend-deterministic order (the
  /// runner picks publishers and victims by index into this list).
  virtual std::vector<sub_id> active() const = 0;
  virtual std::size_t population() const = 0;

  /// The distinguished root subscription, when the structure has one
  /// (kNoSub otherwise) — lets scenarios target "kill the root".
  virtual sub_id root() const { return kNoSub; }

  // ----------------------------------------------------- dissemination
  /// Publish `n` events from one publisher (must be alive) as a batch and
  /// drain once, returning ONE aggregated report (per-event sums;
  /// messages = total network cost of the whole batch).  The DR-tree
  /// shares event envelopes; a baseline publishes the events one by one,
  /// so every backend accepts batch scenarios and the comparison stays
  /// honest.
  virtual delivery_report publish_batch(sub_id publisher,
                                        const spatial::pt* values,
                                        std::size_t n) = 0;

  /// Publish one event and drain: the batch of one.
  delivery_report publish(sub_id publisher, const spatial::pt& value) {
    return publish_batch(publisher, &value, 1);
  }

  // --------------------------------------------------------- execution
  /// Drain in-flight protocol work (no-op for structural baselines).
  virtual void settle() {}

  /// Advance one stabilization round (one timer period of virtual time,
  /// then drain).  No-op without cap_stabilize.
  virtual void step_round() {}

  /// True iff the current configuration is legitimate.  Backends without
  /// a legality notion are vacuously legal.
  virtual bool legal() const { return true; }

  virtual backend_shape shape() const = 0;
  virtual backend_counters counters() const = 0;

  // ----------------------------------------------------- observability
  /// The backend's flight-recorder ring (DESIGN.md §12), or nullptr when
  /// tracing is off / the backend has none.  Sharded backends return the
  /// first shard's ring; each shard's own is its overlay's trace().
  virtual const obs::trace_ring* trace() const { return nullptr; }
};

}  // namespace drt::engine

#endif  // DRT_ENGINE_BACKEND_H
