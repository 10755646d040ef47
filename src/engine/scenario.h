// Declarative experiment scenarios (DESIGN.md §6).
//
// A scenario is a *value*: a name, a workload profile, and an ordered
// timeline of typed phases.  It carries no behavior — scenario_runner
// executes it against any backend — so the same scenario drives the
// DR-tree, the broker façade, and every baseline through identical
// operation sequences, and two runs with the same seed are
// bit-reproducible.  The caller builds the backend: the scenario's net
// model reaches it through engine::configured_for, and a shard count is
// a drtree_backend constructor argument, not part of the scenario.
//
// Timelines are assembled with the fluent builder:
//
//   auto sc = scenario::make("rolling_churn")
//                 .seed(7).populate(64).converge()
//                 .repeat(4, [](auto& b) {
//                   b.churn_wave(16).converge().publish_sweep(60);
//                 })
//                 .build();
//
// Canned timelines for the recurring experiment shapes live in
// engine::canned.
#ifndef DRT_ENGINE_SCENARIO_H
#define DRT_ENGINE_SCENARIO_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/config.h"
#include "spatial/types.h"
#include "workload/workload.h"

namespace drt::engine {

/// Add subscriptions: `count` generated from the scenario's workload
/// family, or the explicit `filters` when non-empty.
struct populate_phase {
  std::size_t count = 0;
  std::vector<spatial::box> filters;
};

/// Publish `count` events from random live subscriptions; accuracy and
/// cost are aggregated against brute-force ground truth.
struct publish_sweep_phase {
  std::size_t count = 0;
  workload::event_family family = workload::event_family::uniform;
};

/// Publish `count` events in batches of `batch` from random live
/// subscriptions (one publisher per batch), through the backend's batch
/// path (DESIGN.md §9).  Accuracy accounting matches publish_sweep;
/// backends without a native batch path fall back to per-event publishes,
/// so the recorded message cost is what makes the comparison.
struct publish_batch_phase {
  std::size_t count = 0;
  std::size_t batch = 16;
  workload::event_family family = workload::event_family::uniform;
};

/// Interleaved joins and controlled leaves: each of `ops` operations is a
/// join with probability `join_fraction` (forced while the population is
/// below `min_population`), otherwise a leave of a random live
/// subscription.
struct churn_wave_phase {
  std::size_t ops = 0;
  double join_fraction = 0.5;
  std::size_t min_population = 4;
};

/// Uncontrolled departures: crash `count` plus `fraction` of the live
/// population, chosen uniformly (the root first when `include_root`).
/// Requires cap_crash; recorded as skipped otherwise.
struct crash_burst_phase {
  double fraction = 0.0;
  std::size_t count = 0;
  bool include_root = false;
};

/// Controlled departures of `count` plus `fraction` of the live
/// population, chosen uniformly.
struct controlled_leave_wave_phase {
  double fraction = 0.0;
  std::size_t count = 0;
};

/// Revive up to `count` of the most recently crashed subscriptions with
/// their stale state (the §2.1 transient-fault model).  Requires
/// cap_restart.
struct restart_burst_phase {
  std::size_t count = 0;
};

/// Scramble protocol variables at the given per-variable rate.  Requires
/// cap_corruption.
struct corruption_burst_phase {
  double rate = 0.1;
};

/// Run stabilization rounds until the configuration is legitimate; the
/// recorded `rounds` is the count needed (-1 when `max_rounds` elapsed
/// without convergence).  Backends without a legality notion converge in
/// zero rounds.
struct converge_phase {
  int max_rounds = 300;
};

/// Run exactly `rounds` stabilization rounds, legal or not, recording
/// legality afterwards.  This is how a timeline holds a fault window
/// open (e.g. "stay partitioned for 8 periods") — converge would either
/// exit immediately or burn its whole budget against a fault that
/// cannot heal by stabilization alone.
/// Requires cap_stabilize; on backends whose repair is not round-stepped
/// (e.g. net_backend, where wall-clock drives the daemon's stabilizer)
/// the phase is recorded with skipped=true instead of a no-op row.
struct step_rounds_phase {
  int rounds = 1;
};

/// Cut the network in two: `fraction` of the live population (chosen by
/// the runner's RNG) forms the minority side.  Cross-cut messages drop
/// and each side's failure detectors see the other as dead until a heal
/// phase.  Requires cap_partition; recorded as skipped otherwise.
struct partition_phase {
  double fraction = 0.5;
};

/// Remove the active partition.  Requires cap_partition.
struct heal_phase {};

/// Ramp all links to `latency_factor` x latency and `extra_loss`
/// stacked loss over `ramp_rounds` stabilization periods, then hold.
/// Requires cap_degrade; recorded as skipped otherwise.
struct degrade_links_phase {
  double latency_factor = 1.0;
  double extra_loss = 0.0;
  double ramp_rounds = 0.0;
};

/// Which knob a param_ramp phase sweeps.
enum class ramp_target {
  churn_ops,      ///< churn_wave ops per step
  publish_count,  ///< publish_sweep events per step
  crash_fraction, ///< crash_burst fraction per step
};

const char* to_string(ramp_target t);

/// Sweep a knob from `from` to `to` over `steps` sub-phases; each step
/// executes the target phase with the interpolated value (disruptive
/// targets are followed by an in-step converge) and records one row with
/// the step's value in the `ramp` column.
struct param_ramp_phase {
  ramp_target target = ramp_target::churn_ops;
  double from = 0.0;
  double to = 0.0;
  std::size_t steps = 0;
  workload::event_family family = workload::event_family::matching;
  int converge_rounds = 300;
};

using phase =
    std::variant<populate_phase, publish_sweep_phase, churn_wave_phase,
                 crash_burst_phase, controlled_leave_wave_phase,
                 restart_burst_phase, corruption_burst_phase, converge_phase,
                 param_ramp_phase, step_rounds_phase, partition_phase,
                 heal_phase, degrade_links_phase, publish_batch_phase>;

/// Stable phase label used in metrics rows and digests.
const char* phase_name(const phase& p);

/// Workload generation parameters + the seed that makes a scenario run
/// reproducible (it drives filter/event generation and victim picks).
/// `subs.workspace` must agree with the backend's workspace (e.g.
/// overlay_backend_config::dr.workspace, which also feeds the Z-curve
/// DHT grid): generated filters and events are drawn over it, and a
/// mismatch silently clamps them into a corner of the overlay's space.
/// Both default to the same 1000x1000 square; set the builder's
/// `workspace()` when the backend uses anything else (the
/// analysis::testbed shim aligns them automatically).
struct workload_profile {
  workload::subscription_family family =
      workload::subscription_family::uniform;
  workload::subscription_params subs{};
  std::uint64_t seed = 7;
};

struct scenario {
  std::string name;
  workload_profile workload;
  /// Declarative network model the scenario is meant to run under; a
  /// scenario with partition/degrade phases needs a dynamic model here.
  /// Backends are constructed by the caller, so this is applied via
  /// engine::configured_for (backends.h) — unset means "whatever the
  /// backend was built with" (the uniform default).
  std::optional<net::model_config> net;
  std::vector<phase> timeline;

  class builder;
  static builder make(std::string name);
};

class scenario::builder {
 public:
  explicit builder(std::string name);

  builder& seed(std::uint64_t seed);
  builder& family(workload::subscription_family family);
  builder& subscription_params(const workload::subscription_params& params);
  /// Workspace filters/events are generated over; keep it equal to the
  /// backend's workspace (see workload_profile).
  builder& workspace(const spatial::box& workspace);
  /// Declarative network model (see scenario::net).
  builder& net(const net::model_config& model);

  builder& populate(std::size_t count);
  builder& subscribe(std::vector<spatial::box> filters);
  builder& publish_sweep(
      std::size_t count,
      workload::event_family family = workload::event_family::matching);
  builder& publish_batch(
      std::size_t count, std::size_t batch = 16,
      workload::event_family family = workload::event_family::matching);
  builder& churn_wave(std::size_t ops, double join_fraction = 0.5,
                      std::size_t min_population = 4);
  builder& crash_burst(double fraction, bool include_root = false);
  builder& crash_count(std::size_t count, bool include_root = false);
  builder& controlled_leave_wave(double fraction);
  builder& leave_count(std::size_t count);
  builder& restart_burst(std::size_t count);
  builder& corruption_burst(double rate);
  builder& converge(int max_rounds = 300);
  builder& step_rounds(int rounds);
  builder& partition(double fraction = 0.5);
  builder& heal();
  builder& degrade_links(double latency_factor, double extra_loss = 0.0,
                         double ramp_rounds = 0.0);
  builder& param_ramp(
      ramp_target target, double from, double to, std::size_t steps,
      workload::event_family family = workload::event_family::matching);

  /// Append `block`'s phases `times` times (rolling waves, epochs).
  builder& repeat(std::size_t times,
                  const std::function<void(builder&)>& block);

  scenario build();

 private:
  scenario scenario_;
};

/// Canned timelines for the recurring experiment shapes.  All of them run
/// on every backend; phases outside a backend's capability mask are
/// recorded as skipped.
namespace canned {

/// A small stable population hit by a join storm, then measured.
scenario flash_crowd(std::size_t base = 24, std::size_t crowd = 96,
                     std::uint64_t seed = 7);

/// Steady population under repeated join/leave waves with accuracy sweeps
/// between waves — the dynamic workload every backend supports.
scenario rolling_churn(std::size_t n = 64, std::size_t waves = 4,
                       std::size_t ops = 16, std::uint64_t seed = 7);

/// The combined disaster: crash a third of the peers (root included),
/// corrupt half the survivors' memories, then heal and verify accuracy.
scenario massacre_then_heal(std::size_t n = 60, double crash_fraction = 1.0 / 3,
                            double corruption = 0.5, std::uint64_t seed = 7);

/// Split-brain under a network partition, then heal (E18): a converged
/// population is cut in two for `down_rounds` stabilization periods
/// (each side re-legalizes internally — measured by the sweep across
/// the cut), then the partition heals and the two trees must merge back
/// to one legal overlay with zero false negatives.  Carries a dynamic
/// net model over the uniform default, so run it on a backend built via
/// engine::configured_for.
scenario split_brain_heal(std::size_t n = 64, double minority = 1.0 / 3,
                          int down_rounds = 8, std::uint64_t seed = 7);

}  // namespace canned

}  // namespace drt::engine

#endif  // DRT_ENGINE_SCENARIO_H
