// Shared experiment drivers: building overlays from workloads, running
// them to a legitimate configuration, and sweeping publications for
// accuracy accounting.  Since the engine redesign (DESIGN.md §6) the
// testbed is a thin shim over engine::scenario_runner driving a
// one-shard engine::drtree_backend — kept because a large body of tests
// and benches speaks this vocabulary, and as the one-liner way to get a
// populated DR-tree.  New experiment code should use the engine API
// directly (declarative scenarios run on any backend).
#ifndef DRT_ANALYSIS_HARNESS_H
#define DRT_ANALYSIS_HARNESS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "drtree/checker.h"
#include "drtree/overlay.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "workload/workload.h"

namespace drt::analysis {

struct harness_config {
  overlay::dr_config dr{};
  sim::simulator_config net{};
  workload::subscription_family family =
      workload::subscription_family::uniform;
  workload::subscription_params subs{};
  std::uint64_t workload_seed = 7;
};

/// An overlay populated from a synthetic workload, with converge and
/// accuracy helpers.  All behavior delegates to the scenario runner's
/// primitives; the overlay accessor pierces the abstraction for
/// white-box tests.
class testbed {
 public:
  explicit testbed(harness_config config = {});

  /// Aggregate accuracy/cost of one publish sweep (the engine's
  /// sweep_stats under its historical name).
  using accuracy = engine::sweep_stats;

  /// Add `n` peers with generated filters, settling after each join.
  void populate(std::size_t n) { runner_->populate(n); }

  /// Add one peer with an explicit filter (settles the join traffic).
  spatial::peer_id add(const spatial::box& filter) {
    return static_cast<spatial::peer_id>(runner_->add(filter));
  }

  /// Run stabilization rounds (one timer period each) until the checker
  /// reports a legitimate configuration; returns the number of rounds, or
  /// -1 if `max_rounds` elapsed without convergence.
  int converge(int max_rounds = 80) { return runner_->converge(max_rounds); }

  /// True iff the current configuration is legitimate (Definition 3.2).
  bool legal() const { return backend_->legal(); }
  overlay::check_report report(bool check_containment = false) const {
    // Assertion-level check: tests treat a violation here as a failure,
    // so a tracing overlay's first illegal report writes the flight dump
    // (check_report::dump_path names it).
    return overlay::checker(backend_->overlay())
        .check(check_containment, /*dump_on_violation=*/true);
  }

  /// Publish `count` events of the given family from random live peers;
  /// aggregates accuracy and cost.
  accuracy publish_sweep(std::size_t count,
                         workload::event_family family =
                             workload::event_family::uniform) {
    return runner_->publish_sweep(count, family);
  }

  overlay::dr_overlay& overlay() { return backend_->overlay(); }
  const overlay::dr_overlay& overlay() const { return backend_->overlay(); }
  engine::drtree_backend& backend() { return *backend_; }
  engine::scenario_runner& runner() { return *runner_; }
  util::rng& workload_rng() { return runner_->rng(); }
  const std::vector<spatial::box>& filters() const {
    return runner_->filters();
  }
  const harness_config& config() const { return config_; }

 private:
  harness_config config_;
  std::unique_ptr<engine::drtree_backend> backend_;
  std::unique_ptr<engine::scenario_runner> runner_;
};

}  // namespace drt::analysis

#endif  // DRT_ANALYSIS_HARNESS_H
