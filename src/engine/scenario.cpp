#include "engine/scenario.h"

namespace drt::engine {

const char* to_string(ramp_target t) {
  switch (t) {
    case ramp_target::churn_ops: return "churn_ops";
    case ramp_target::publish_count: return "publish_count";
    case ramp_target::crash_fraction: return "crash_fraction";
  }
  return "?";
}

namespace {

struct phase_name_visitor {
  const char* operator()(const populate_phase&) const { return "populate"; }
  const char* operator()(const publish_sweep_phase&) const {
    return "publish_sweep";
  }
  const char* operator()(const publish_batch_phase&) const {
    return "publish_batch";
  }
  const char* operator()(const churn_wave_phase&) const {
    return "churn_wave";
  }
  const char* operator()(const crash_burst_phase&) const {
    return "crash_burst";
  }
  const char* operator()(const controlled_leave_wave_phase&) const {
    return "controlled_leave_wave";
  }
  const char* operator()(const restart_burst_phase&) const {
    return "restart_burst";
  }
  const char* operator()(const corruption_burst_phase&) const {
    return "corruption_burst";
  }
  const char* operator()(const converge_phase&) const {
    return "converge_until_legal";
  }
  const char* operator()(const param_ramp_phase&) const {
    return "param_ramp";
  }
  const char* operator()(const step_rounds_phase&) const {
    return "step_rounds";
  }
  const char* operator()(const partition_phase&) const { return "partition"; }
  const char* operator()(const heal_phase&) const { return "heal"; }
  const char* operator()(const degrade_links_phase&) const {
    return "degrade_links";
  }
};

}  // namespace

const char* phase_name(const phase& p) {
  return std::visit(phase_name_visitor{}, p);
}

// --------------------------------------------------------------- builder

scenario::builder scenario::make(std::string name) {
  return builder(std::move(name));
}

scenario::builder::builder(std::string name) { scenario_.name = std::move(name); }

scenario::builder& scenario::builder::seed(std::uint64_t seed) {
  scenario_.workload.seed = seed;
  return *this;
}

scenario::builder& scenario::builder::family(
    workload::subscription_family family) {
  scenario_.workload.family = family;
  return *this;
}

scenario::builder& scenario::builder::subscription_params(
    const workload::subscription_params& params) {
  scenario_.workload.subs = params;
  return *this;
}

scenario::builder& scenario::builder::workspace(
    const spatial::box& workspace) {
  scenario_.workload.subs.workspace = workspace;
  return *this;
}

scenario::builder& scenario::builder::net(const net::model_config& model) {
  scenario_.net = model;
  return *this;
}

scenario::builder& scenario::builder::populate(std::size_t count) {
  scenario_.timeline.push_back(populate_phase{count, {}});
  return *this;
}

scenario::builder& scenario::builder::subscribe(
    std::vector<spatial::box> filters) {
  scenario_.timeline.push_back(populate_phase{0, std::move(filters)});
  return *this;
}

scenario::builder& scenario::builder::publish_sweep(
    std::size_t count, workload::event_family family) {
  scenario_.timeline.push_back(publish_sweep_phase{count, family});
  return *this;
}

scenario::builder& scenario::builder::publish_batch(
    std::size_t count, std::size_t batch, workload::event_family family) {
  scenario_.timeline.push_back(
      publish_batch_phase{count, batch == 0 ? 1 : batch, family});
  return *this;
}

scenario::builder& scenario::builder::churn_wave(std::size_t ops,
                                                 double join_fraction,
                                                 std::size_t min_population) {
  scenario_.timeline.push_back(
      churn_wave_phase{ops, join_fraction, min_population});
  return *this;
}

scenario::builder& scenario::builder::crash_burst(double fraction,
                                                  bool include_root) {
  scenario_.timeline.push_back(crash_burst_phase{fraction, 0, include_root});
  return *this;
}

scenario::builder& scenario::builder::crash_count(std::size_t count,
                                                  bool include_root) {
  scenario_.timeline.push_back(crash_burst_phase{0.0, count, include_root});
  return *this;
}

scenario::builder& scenario::builder::controlled_leave_wave(double fraction) {
  scenario_.timeline.push_back(controlled_leave_wave_phase{fraction, 0});
  return *this;
}

scenario::builder& scenario::builder::leave_count(std::size_t count) {
  scenario_.timeline.push_back(controlled_leave_wave_phase{0.0, count});
  return *this;
}

scenario::builder& scenario::builder::restart_burst(std::size_t count) {
  scenario_.timeline.push_back(restart_burst_phase{count});
  return *this;
}

scenario::builder& scenario::builder::corruption_burst(double rate) {
  scenario_.timeline.push_back(corruption_burst_phase{rate});
  return *this;
}

scenario::builder& scenario::builder::converge(int max_rounds) {
  scenario_.timeline.push_back(converge_phase{max_rounds});
  return *this;
}

scenario::builder& scenario::builder::step_rounds(int rounds) {
  scenario_.timeline.push_back(step_rounds_phase{rounds});
  return *this;
}

scenario::builder& scenario::builder::partition(double fraction) {
  scenario_.timeline.push_back(partition_phase{fraction});
  return *this;
}

scenario::builder& scenario::builder::heal() {
  scenario_.timeline.push_back(heal_phase{});
  return *this;
}

scenario::builder& scenario::builder::degrade_links(double latency_factor,
                                                    double extra_loss,
                                                    double ramp_rounds) {
  scenario_.timeline.push_back(
      degrade_links_phase{latency_factor, extra_loss, ramp_rounds});
  return *this;
}

scenario::builder& scenario::builder::param_ramp(
    ramp_target target, double from, double to, std::size_t steps,
    workload::event_family family) {
  scenario_.timeline.push_back(
      param_ramp_phase{target, from, to, steps, family, 300});
  return *this;
}

scenario::builder& scenario::builder::repeat(
    std::size_t times, const std::function<void(builder&)>& block) {
  builder inner("");
  block(inner);
  for (std::size_t i = 0; i < times; ++i) {
    for (const auto& p : inner.scenario_.timeline) {
      scenario_.timeline.push_back(p);
    }
  }
  return *this;
}

scenario scenario::builder::build() { return scenario_; }

// ---------------------------------------------------------------- canned

namespace canned {

scenario flash_crowd(std::size_t base, std::size_t crowd,
                     std::uint64_t seed) {
  return scenario::make("flash_crowd")
      .seed(seed)
      .populate(base)
      .converge()
      .publish_sweep(60, workload::event_family::matching)
      .populate(crowd)  // the crowd arrives
      .converge()
      .publish_sweep(60, workload::event_family::matching)
      .build();
}

scenario rolling_churn(std::size_t n, std::size_t waves, std::size_t ops,
                       std::uint64_t seed) {
  return scenario::make("rolling_churn")
      .seed(seed)
      .populate(n)
      .converge()
      .repeat(waves,
              [ops](scenario::builder& b) {
                b.churn_wave(ops, 0.5, 8)
                    .converge()
                    .publish_sweep(60, workload::event_family::matching);
              })
      .build();
}

scenario split_brain_heal(std::size_t n, double minority, int down_rounds,
                          std::uint64_t seed) {
  // Dynamic fault layer over the default uniform transport: partitions
  // need a runtime-controllable model.
  net::dynamic_model_config dyn;
  return scenario::make("split_brain_heal")
      .seed(seed)
      .net(dyn)
      .populate(n)
      .converge()
      .publish_sweep(60, workload::event_family::matching)  // healthy FN = 0
      .partition(minority)
      .step_rounds(down_rounds)  // each side stabilizes alone
      .publish_sweep(60, workload::event_family::matching)  // FNs: the cut
      .heal()
      .converge(400)  // the two trees must merge back into one
      .publish_sweep(60, workload::event_family::matching)  // FN = 0 again
      .build();
}

scenario massacre_then_heal(std::size_t n, double crash_fraction,
                            double corruption, std::uint64_t seed) {
  return scenario::make("massacre_then_heal")
      .seed(seed)
      .populate(n)
      .converge()
      .crash_burst(crash_fraction, /*include_root=*/true)
      .corruption_burst(corruption)
      .converge(400)
      .publish_sweep(100, workload::event_family::matching)
      .build();
}

}  // namespace canned

}  // namespace drt::engine
