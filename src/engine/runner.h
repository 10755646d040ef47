// Executes declarative scenarios against any backend (DESIGN.md §6).
//
// The runner owns the experiment-side randomness (filter generation,
// event generation, publisher and victim picks), seeds it from the
// scenario's workload profile, and records one phase_metrics row per
// executed phase.  Backends never consume the runner's RNG, so on a
// timeline every backend can execute (nothing skipped by the capability
// mask) the same scenario + seed issues the identical operation sequence
// to every backend — the basis of the cross-backend determinism
// guarantees.  A skipped phase consumes no draws and changes no state,
// so once a timeline strays outside a backend's mask its subsequent rows
// are comparable in schema only (DESIGN.md §6).
//
// The phase executors are also exposed as primitives (populate, converge,
// publish_sweep, ...) for tests, benches and tools that interleave
// scripted operations with direct backend manipulation: the caller
// declares a backend and a runner over it, and drives both.
#ifndef DRT_ENGINE_RUNNER_H
#define DRT_ENGINE_RUNNER_H

#include <functional>
#include <vector>

#include "engine/backend.h"
#include "engine/metrics.h"
#include "engine/scenario.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace drt::engine {

struct runner_config {
  /// Profile used by the *primitive* calls; scenario runs use the
  /// scenario's own profile (and a fresh RNG seeded from it).
  workload_profile workload{};
  /// Observer invoked after every stabilization round of a converge
  /// phase (round-by-round demos hook this).  It gets no verdict: the
  /// loop's next legal() poll decides, and a hook that wants one reads
  /// the backend itself.
  std::function<void(int round)> on_converge_round;
};

class scenario_runner {
 public:
  explicit scenario_runner(engine::backend& be, runner_config config = {});

  /// Execute every phase of the timeline in order, append a final
  /// "shape" row (structural snapshot), and return the filled
  /// recorder.  Phases outside the backend's capability mask are recorded
  /// with skipped = yes.  Deterministic: the run draws only from a fresh
  /// RNG seeded by `sc.workload.seed` and keeps run-local filter/crash
  /// state, so identical (scenario, seed, fresh backend) runs record
  /// identical output whatever this runner executed before.
  metrics_recorder run(const scenario& sc);

  // ------------------------------------------------------- primitives
  /// Add `n` subscriptions generated from the runner's workload profile.
  std::vector<sub_id> populate(std::size_t n);
  /// Add one subscription with an explicit filter.
  sub_id add(const spatial::box& filter);
  /// Publish `count` events from random live subscriptions (a batch
  /// sweep with batch 1: one publisher pick per event).
  sweep_stats publish_sweep(
      std::size_t count,
      workload::event_family family = workload::event_family::uniform);
  /// Publish `count` events in batches of `batch` through the backend's
  /// batch path (one random live publisher per batch).
  sweep_stats publish_batch(
      std::size_t count, std::size_t batch,
      workload::event_family family = workload::event_family::uniform);
  /// Stabilization rounds until legal; rounds needed, or -1.
  int converge(int max_rounds = 300);
  /// Interleaved joins/leaves; returns ops performed.
  std::size_t churn_wave(std::size_t ops, double join_fraction = 0.5,
                         std::size_t min_population = 4);
  /// Crash `count` + `fraction`-of-population subscriptions (root first
  /// when asked); returns crashes performed (0 without cap_crash).
  std::size_t crash_burst(double fraction, std::size_t count = 0,
                          bool include_root = false);
  /// Controlled departures; returns leaves performed.
  std::size_t leave_wave(double fraction, std::size_t count = 0);
  /// Revive up to `count` most recently crashed subscriptions.
  std::size_t restart_burst(std::size_t count);
  /// Scramble backend state; returns mutations performed.
  std::size_t corrupt(double rate);
  /// Run exactly `rounds` stabilization rounds (legal or not).
  int step_rounds(int rounds);
  /// Cut off a random `fraction` of the live population (0 without
  /// cap_partition); returns the minority size.
  std::size_t partition(double fraction);
  /// Remove the active partition; false without cap_partition.
  bool heal();
  /// Install a degradation ramp; false without cap_degrade.
  bool degrade_links(double latency_factor, double extra_loss,
                     double ramp_rounds);

  // ----------------------------------------------------------- access
  engine::backend& backend() { return be_; }
  const engine::backend& backend() const { return be_; }
  util::rng& rng() { return rng_; }
  /// Every filter subscribed through the *primitives* (event families
  /// such as `matching` draw from these historical interests).
  /// Scenario runs keep their own run-local history.
  const std::vector<spatial::box>& filters() const { return filters_; }
  /// Primitive-side crash stack consumed by restart_burst (most recent
  /// last).
  const std::vector<sub_id>& crashed() const { return crashed_; }
  const runner_config& config() const { return config_; }

  /// Observability side channel (DESIGN.md §12): counters plus the
  /// publish-hop-depth and stabilize-round-latency histograms every sweep
  /// and round executor feeds.  Deliberately NOT part of the
  /// metrics_recorder rows, so the recorder digest — and with it every
  /// golden-digest determinism test — is unchanged by instrumentation.
  /// Wall-clock latencies live only here, never in recorded rows.
  obs::registry& metrics() { return metrics_; }
  const obs::registry& metrics() const { return metrics_; }

 private:
  /// Per-execution experiment state: the RNG stream plus the filter
  /// history and crash stack it feeds.  Primitives bind the runner's
  /// members; run() binds run-local state so a scenario's outcome never
  /// depends on what ran before.
  struct phase_ctx {
    const workload_profile& profile;
    util::rng& rng;
    std::vector<spatial::box>& filters;
    std::vector<sub_id>& crashed;
  };

  std::vector<sub_id> do_populate(phase_ctx ctx, std::size_t n,
                                  const std::vector<spatial::box>& explicit_f,
                                  phase_metrics* out);
  sweep_stats do_batch_sweep(phase_ctx ctx, const publish_batch_phase& p,
                             phase_metrics* out);
  int do_converge(int max_rounds, phase_metrics* out);
  std::size_t do_churn(phase_ctx ctx, const churn_wave_phase& p,
                       phase_metrics* out);
  std::size_t do_crash(phase_ctx ctx, const crash_burst_phase& p,
                       phase_metrics* out);
  std::size_t do_leave(phase_ctx ctx, const controlled_leave_wave_phase& p,
                       phase_metrics* out);
  std::size_t do_restart(phase_ctx ctx, std::size_t count,
                         phase_metrics* out);
  std::size_t do_corrupt(phase_ctx ctx, double rate, phase_metrics* out);
  int do_steps(int rounds, phase_metrics* out);
  std::size_t do_partition(phase_ctx ctx, double fraction,
                           phase_metrics* out);
  bool do_heal(phase_metrics* out);
  bool do_degrade(const degrade_links_phase& p, phase_metrics* out);
  void do_ramp(phase_ctx ctx, const param_ramp_phase& p,
               metrics_recorder& rec);

  void execute(phase_ctx ctx, const phase& p, metrics_recorder& rec);
  void finish_row(phase_metrics& m, const backend_counters& before);

  phase_ctx own_ctx() {
    return {config_.workload, rng_, filters_, crashed_};
  }

  engine::backend& be_;
  runner_config config_;
  util::rng rng_;
  std::vector<spatial::box> filters_;
  std::vector<sub_id> crashed_;
  obs::registry metrics_;
};

}  // namespace drt::engine

#endif  // DRT_ENGINE_RUNNER_H
