// Backend adapters (DESIGN.md §6): the DR-tree overlay, the broker
// façade, and the four §3.1/§4 baselines behind the one
// drt::engine::backend interface.
//
// There is one DR-tree backend, drtree_backend; its shard count is a
// constructor argument.  At one shard it and broker_backend drive the
// identical protocol stack through the identical operations, so a
// churn-free scenario produces bit-identical metrics on either — the
// engine determinism tests rely on this.  Baselines get honest
// *incremental rebuild* semantics: they have no repair protocol, so every
// membership change rebuilds the structure from the surviving
// subscription set (counted in backend_counters::rebuilds); crashes,
// restarts, and corruption are outside their capability mask.
#ifndef DRT_ENGINE_BACKENDS_H
#define DRT_ENGINE_BACKENDS_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/baseline.h"
#include "drtree/overlay.h"
#include "engine/backend.h"
#include "pubsub/broker.h"
#include "rtree/rtree.h"
#include "sim/kernel.h"

namespace drt::engine {

struct scenario;

/// Shared configuration for the overlay-backed adapters.
struct overlay_backend_config {
  overlay::dr_config dr{};
  sim::simulator_config net{};
};

/// The backend config a scenario calls for: `base` with the scenario's
/// declarative net model (when it has one) installed.  Benches and
/// tests use this so the scenario value fully determines the transport.
overlay_backend_config configured_for(const scenario& sc,
                                      overlay_backend_config base = {});

/// The system under study: the full DR-tree protocol stack, one overlay
/// peer per subscription, over `shards` simulator shards driven by one
/// sim::kernel (DESIGN.md §8).  Each shard is a full dr_overlay — its
/// own simulator, calendar queue, payload pool, RNG stream and filter
/// index — and subscriptions are dealt round-robin in arrival order, so
/// global id s is local peer s / S on shard s % S.  Each shard grows its
/// own tree: protocol traffic (joins, stabilization, repair) stays inside
/// a shard, and only publications cross, as kernel injections delivered
/// at barriers (publish in the origin shard, inject at every other
/// shard's root).  At one shard the kernel is a pass-through and this is
/// the plain overlay, bit for bit (the golden digests pin it); for any
/// fixed shard count a run is bit-deterministic.
class drtree_backend final : public backend {
 public:
  explicit drtree_backend(overlay_backend_config config = {},
                          std::size_t shards = 1, bool parallel = false);

  std::string name() const override { return "drtree"; }
  capability_mask capabilities() const override;

  sub_id subscribe(const spatial::box& filter) override;
  bool unsubscribe(sub_id s) override;
  bool crash(sub_id s) override;
  bool restart(sub_id s) override;
  std::size_t corrupt(double rate, std::uint64_t seed) override;
  // Partition, heal and degrade act on one simulator's net model; a
  // forest has no honest cross-shard story for them, so they exist only
  // at one shard (and need its dynamic model).
  bool partition(const std::vector<sub_id>& side_b) override;
  bool heal() override;
  bool degrade_links(double latency_factor, double extra_loss,
                     double ramp_rounds) override;

  bool alive(sub_id s) const override;
  std::vector<sub_id> active() const override;
  std::size_t population() const override;
  sub_id root() const override;

  delivery_report publish(sub_id publisher, const spatial::pt& value) override;
  delivery_report publish_batch(sub_id publisher, const spatial::pt* values,
                                std::size_t n) override;

  void settle() override { kernel_.settle(); }
  void step_round() override;
  bool legal() const override;
  backend_shape shape() const override;
  backend_counters counters() const override;

  const obs::trace_ring* trace() const override {
    return overlays_[0]->trace();
  }
  std::string dump_flight(const std::string& reason) override;

  std::size_t shards() const { return overlays_.size(); }
  overlay::dr_overlay& overlay(std::size_t shard = 0) {
    return *overlays_[shard];
  }
  const overlay::dr_overlay& overlay(std::size_t shard = 0) const {
    return *overlays_[shard];
  }
  sim::kernel& kernel() { return kernel_; }
  const sim::kernel& kernel() const { return kernel_; }

  /// Total protocol-state footprint across all shards: the instance
  /// arenas plus the live peers' duplicate-suppression sets.
  overlay::arena_stats arena_stats() const;

 private:
  std::size_t shard_of(sub_id s) const { return s % overlays_.size(); }
  /// s / S on shard s % S, or kNoPeer when `s` was never issued.
  spatial::peer_id local_of(sub_id s) const;
  sub_id global_of(std::size_t shard, spatial::peer_id p) const {
    return static_cast<sub_id>(p) * overlays_.size() + shard;
  }

  std::vector<std::unique_ptr<overlay::dr_overlay>> overlays_;
  sim::kernel kernel_;
};

/// The old name of drtree_backend, kept for perfbench/, whose sources
/// spell it so.
using sharded_drtree_backend = drtree_backend;

/// The application façade: one broker client per engine subscription, so
/// client-level accounting coincides with subscription-level accounting
/// and the adapter stays metrics-compatible with drtree_backend.
class broker_backend final : public backend {
 public:
  explicit broker_backend(overlay_backend_config config = {});

  std::string name() const override { return "broker"; }
  capability_mask capabilities() const override;

  sub_id subscribe(const spatial::box& filter) override;
  bool unsubscribe(sub_id s) override;
  bool crash(sub_id s) override;
  bool restart(sub_id s) override;
  std::size_t corrupt(double rate, std::uint64_t seed) override;
  bool partition(const std::vector<sub_id>& side_b) override;
  bool heal() override { return broker_->raw_overlay().heal_partition(); }
  bool degrade_links(double latency_factor, double extra_loss,
                     double ramp_rounds) override;

  bool alive(sub_id s) const override;
  std::vector<sub_id> active() const override;
  std::size_t population() const override {
    return broker_->raw_overlay().live_count();
  }
  sub_id root() const override;

  delivery_report publish(sub_id publisher, const spatial::pt& value) override;
  delivery_report publish_batch(sub_id publisher, const spatial::pt* values,
                                std::size_t n) override;

  void settle() override { broker_->raw_overlay().settle(); }
  void step_round() override;
  bool legal() const override { return broker_->overlay_legal(); }
  backend_shape shape() const override;
  backend_counters counters() const override;

  pubsub::broker& broker() { return *broker_; }

 private:
  std::unique_ptr<pubsub::broker> broker_;
  /// sub_id == the subscription's overlay peer id; the handle map lets
  /// unsubscribe tear down through the broker API.
  std::unordered_map<sub_id, pubsub::subscription_handle> handles_;
};

/// Adapter for the static baselines: membership changes rebuild the
/// structure from the surviving subscription set, publications are scored
/// against brute-force ground truth over that set.
class baseline_backend final : public backend {
 public:
  explicit baseline_backend(std::unique_ptr<baselines::pubsub_baseline> impl);

  std::string name() const override { return impl_->name(); }
  capability_mask capabilities() const override { return cap_unsubscribe; }

  sub_id subscribe(const spatial::box& filter) override;
  bool unsubscribe(sub_id s) override;

  bool alive(sub_id s) const override;
  std::vector<sub_id> active() const override { return ids_; }
  std::size_t population() const override { return ids_.size(); }

  delivery_report publish(sub_id publisher, const spatial::pt& value) override;

  backend_shape shape() const override;
  backend_counters counters() const override {
    return {messages_, rebuilds_};
  }

  baselines::pubsub_baseline& impl() { return *impl_; }

 private:
  void rebuild();
  std::size_t index_of(sub_id s) const;  ///< npos when unknown

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::unique_ptr<baselines::pubsub_baseline> impl_;
  std::vector<sub_id> ids_;              // insertion order
  std::vector<spatial::box> filters_;    // parallel to ids_
  sub_id next_id_ = 1;
  std::uint64_t messages_ = 0;
  std::uint64_t rebuilds_ = 0;
  // Ground-truth matcher over filters_, rebuilt with the baseline (the
  // membership set already changes only through rebuild()); publish()
  // scores against it in O(log N + matches) with reusable buffers.
  baselines::delivery_scorer scorer_;
};

/// All five systems of experiment E14 behind the uniform interface: the
/// DR-tree plus the four baselines (containment tree, dimension forest,
/// flooding, Z-curve DHT).  `broker` adds the sixth, client-facing
/// surface when requested.
std::vector<std::unique_ptr<backend>> make_all_backends(
    const overlay_backend_config& config, bool include_broker = false);

}  // namespace drt::engine

#endif  // DRT_ENGINE_BACKENDS_H
