#include "net/model.h"

#include <algorithm>

#include "util/expect.h"

namespace drt::net {

model::model(const model_config& config) : config_(config) {
  DRT_EXPECT(config_.min_delay >= 0.0);
  DRT_EXPECT(config_.max_delay >= config_.min_delay);
  DRT_EXPECT(config_.loss >= 0.0 && config_.loss <= 1.0);
  DRT_EXPECT(config_.duplicate >= 0.0 && config_.duplicate <= 1.0);
  DRT_EXPECT(config_.reorder >= 0.0 && config_.reorder <= 1.0);
  DRT_EXPECT(config_.reorder_factor >= 1.0);
}

void model::partition(const std::vector<sim::process_id>& side_b) {
  side_b_.clear();
  for (const auto p : side_b) {
    if (side_b_.size() <= p) side_b_.resize(std::size_t{p} + 1, false);
    side_b_[p] = true;
  }
}

void model::degrade(sim::sim_time start, sim::sim_time ramp,
                    double latency_factor, double extra_loss) {
  DRT_EXPECT(ramp >= 0.0);
  DRT_EXPECT(latency_factor >= 1.0);
  DRT_EXPECT(extra_loss >= 0.0 && extra_loss <= 1.0);
  degrade_active_ = true;
  degrade_start_ = start;
  degrade_ramp_ = ramp;
  degrade_latency_factor_ = latency_factor;
  degrade_extra_loss_ = extra_loss;
}

double model::degrade_level(sim::sim_time now) const {
  if (!degrade_active_ || now < degrade_start_) return 0.0;
  if (degrade_ramp_ <= 0.0) return 1.0;  // instant degradation
  return std::min(1.0, (now - degrade_start_) / degrade_ramp_);
}

link_decision model::on_send(sim::process_id from, sim::process_id to,
                             sim::sim_time now, util::rng& rng) {
  // Fixed decision order (the determinism contract in model.h): the
  // partition cut (no draw), iid loss, the delay draw, degradation,
  // reorder, duplication.
  link_decision d;
  if (!allows(from, to)) {
    d.deliver = false;
    d.partitioned = true;
    ++counters_.partitioned;
    return d;
  }
  if (config_.loss > 0.0 && rng.chance(config_.loss)) {
    d.deliver = false;
    ++counters_.dropped;
    return d;
  }
  d.delay = rng.uniform_real(config_.min_delay, config_.max_delay);
  const double level = degrade_level(now);
  if (level > 0.0) {
    ++counters_.degraded;
    d.delay *= 1.0 + level * (degrade_latency_factor_ - 1.0);
    const double loss = level * degrade_extra_loss_;
    if (loss > 0.0 && rng.chance(loss)) {
      d.deliver = false;
      ++counters_.dropped;
      return d;
    }
  }
  if (config_.reorder > 0.0 && rng.chance(config_.reorder)) {
    d.delay *= config_.reorder_factor;
    ++counters_.reordered;
  }
  if (config_.duplicate > 0.0 && rng.chance(config_.duplicate)) {
    d.duplicate_lag = rng.uniform_real(0.0, d.delay);
    ++counters_.duplicated;
  }
  return d;
}

}  // namespace drt::net
