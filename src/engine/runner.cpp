#include "engine/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace drt::engine {

namespace {

/// Wall-clock microseconds since `t0` — registry-only (DESIGN.md §12);
/// never recorded in a metrics_recorder row, which must stay
/// deterministic.
double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

scenario_runner::scenario_runner(engine::backend& be, runner_config config)
    : be_(be), config_(std::move(config)), rng_(config_.workload.seed) {}

// ------------------------------------------------------ phase executors

std::vector<sub_id> scenario_runner::do_populate(
    phase_ctx ctx, std::size_t n, const std::vector<spatial::box>& explicit_f,
    phase_metrics* out) {
  std::vector<spatial::box> rects;
  if (!explicit_f.empty()) {
    rects = explicit_f;
  } else {
    auto params = ctx.profile.subs;
    rects = workload::make_subscriptions(ctx.profile.family, n, ctx.rng,
                                         params);
  }
  std::vector<sub_id> ids;
  ids.reserve(rects.size());
  for (const auto& r : rects) {
    ctx.filters.push_back(r);
    ids.push_back(be_.subscribe(r));
  }
  if (out != nullptr) out->joins += ids.size();
  return ids;
}

sweep_stats scenario_runner::do_batch_sweep(phase_ctx ctx,
                                            const publish_batch_phase& p,
                                            phase_metrics* out) {
  sweep_stats acc;
  const auto live = be_.active();
  const std::size_t batch = p.batch == 0 ? 1 : p.batch;
  if (!live.empty()) {
    // Registry references are stable for its lifetime (DESIGN.md §12);
    // resolve the names once so the per-batch loop — the region the
    // publish-throughput benches time — never does a string-map lookup.
    auto& hop_hist = metrics_.hist("drt_publish_hop_depth");
    auto& events_total = metrics_.counter("drt_events_published_total");
    auto& deliveries_total = metrics_.counter("drt_deliveries_total");
    auto& fn_total = metrics_.counter("drt_false_negatives_total");
    acc.population = live.size();
    std::vector<spatial::pt> values;
    values.reserve(batch);
    for (std::size_t done = 0; done < p.count;) {
      const auto publisher = live[ctx.rng.index(live.size())];
      const std::size_t n = std::min(batch, p.count - done);
      // Draw the batch's values whether or not the publisher is still
      // alive, so the RNG stream (and thus every later pick) does not
      // depend on backend-internal liveness.
      values.clear();
      for (std::size_t i = 0; i < n; ++i) {
        values.push_back(workload::make_event_point(
            p.family, ctx.rng, ctx.profile.subs.workspace, ctx.filters));
      }
      done += n;
      if (!be_.alive(publisher)) continue;
      const auto r = be_.publish_batch(publisher, values.data(), n);
      hop_hist.record(static_cast<double>(r.max_hops));
      events_total += n;
      deliveries_total += r.delivered;
      fn_total += r.false_negatives;
      acc.events += n;
      acc.deliveries += r.delivered;
      acc.interested += r.interested;
      acc.false_positives += r.false_positives;
      acc.false_negatives += r.false_negatives;
      acc.messages += r.messages;
      acc.hops_total += r.max_hops;
      acc.max_hops = std::max(acc.max_hops, r.max_hops);
    }
  }
  if (out != nullptr) {
    out->events += acc.events;
    out->deliveries += acc.deliveries;
    out->interested += acc.interested;
    out->false_positives += acc.false_positives;
    out->false_negatives += acc.false_negatives;
    out->max_hops = std::max(out->max_hops,
                             static_cast<std::size_t>(acc.max_hops));
  }
  return acc;
}

int scenario_runner::do_converge(int max_rounds, phase_metrics* out) {
  int result = -1;
  auto& round_hist = metrics_.hist("drt_stabilize_round_us");
  auto& rounds_total = metrics_.counter("drt_stabilize_rounds_total");
  for (int round = 0; round <= max_rounds; ++round) {
    if (be_.legal()) {
      result = round;
      break;
    }
    if (round == max_rounds) break;  // budget spent, still illegal
    const auto t0 = std::chrono::steady_clock::now();
    be_.step_round();
    round_hist.record(us_since(t0));
    ++rounds_total;
    if (config_.on_converge_round) config_.on_converge_round(round);
  }
  if (out != nullptr) {
    out->rounds = result;
    out->legal = result >= 0 ? 1 : 0;
  }
  return result;
}

std::size_t scenario_runner::do_churn(phase_ctx ctx,
                                      const churn_wave_phase& p,
                                      phase_metrics* out) {
  std::size_t done = 0;
  for (std::size_t op = 0; op < p.ops; ++op) {
    const bool want_join = ctx.rng.chance(p.join_fraction);
    if (want_join || be_.population() < p.min_population) {
      do_populate(ctx, 1, {}, out);
    } else {
      const auto live = be_.active();
      if (live.empty()) continue;
      const auto victim = live[ctx.rng.index(live.size())];
      if (be_.unsubscribe(victim) && out != nullptr) ++out->leaves;
    }
    be_.settle();
    ++done;
  }
  return done;
}

std::size_t scenario_runner::do_crash(phase_ctx ctx,
                                      const crash_burst_phase& p,
                                      phase_metrics* out) {
  auto live = be_.active();
  if (live.empty()) return 0;
  std::size_t target =
      p.count + static_cast<std::size_t>(p.fraction *
                                         static_cast<double>(live.size()));
  target = std::min(target, live.size());
  if (target == 0) return 0;

  ctx.rng.shuffle(live);
  std::size_t crashed = 0;
  if (p.include_root) {
    const auto root = be_.root();
    if (root != kNoSub && be_.crash(root)) {
      ctx.crashed.push_back(root);
      ++crashed;
    }
  }
  for (const auto s : live) {
    if (crashed >= target) break;
    if (!be_.alive(s)) continue;
    if (be_.crash(s)) {
      ctx.crashed.push_back(s);
      ++crashed;
    }
  }
  be_.settle();
  if (out != nullptr) out->crashes += crashed;
  return crashed;
}

std::size_t scenario_runner::do_leave(phase_ctx ctx,
                                      const controlled_leave_wave_phase& p,
                                      phase_metrics* out) {
  auto live = be_.active();
  if (live.empty()) return 0;
  std::size_t target =
      p.count + static_cast<std::size_t>(p.fraction *
                                         static_cast<double>(live.size()));
  target = std::min(target, live.size());
  ctx.rng.shuffle(live);
  std::size_t left = 0;
  for (const auto s : live) {
    if (left >= target) break;
    if (!be_.alive(s)) continue;
    if (be_.unsubscribe(s)) {
      be_.settle();
      ++left;
    }
  }
  if (out != nullptr) out->leaves += left;
  return left;
}

std::size_t scenario_runner::do_restart(phase_ctx ctx, std::size_t count,
                                        phase_metrics* out) {
  std::size_t revived = 0;
  while (revived < count && !ctx.crashed.empty()) {
    const auto s = ctx.crashed.back();
    ctx.crashed.pop_back();
    if (be_.restart(s)) ++revived;
  }
  be_.settle();
  if (out != nullptr) out->restarts += revived;
  return revived;
}

std::size_t scenario_runner::do_corrupt(phase_ctx ctx, double rate,
                                        phase_metrics* out) {
  const auto mutations = be_.corrupt(rate, ctx.rng.next_u64());
  if (out != nullptr) out->corruptions += mutations;
  return mutations;
}

int scenario_runner::do_steps(int rounds, phase_metrics* out) {
  auto& round_hist = metrics_.hist("drt_stabilize_round_us");
  auto& rounds_total = metrics_.counter("drt_stabilize_rounds_total");
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    be_.step_round();
    round_hist.record(us_since(t0));
    ++rounds_total;
  }
  if (out != nullptr) {
    out->rounds = rounds;
    out->legal = be_.legal() ? 1 : 0;
  }
  return rounds;
}

std::size_t scenario_runner::do_partition(phase_ctx ctx, double fraction,
                                          phase_metrics* out) {
  auto live = be_.active();
  std::size_t target =
      std::min(static_cast<std::size_t>(fraction *
                                        static_cast<double>(live.size())),
               live.size());
  ctx.rng.shuffle(live);
  live.resize(target);
  if (!be_.partition(live)) return 0;
  be_.settle();
  if (out != nullptr) out->legal = be_.legal() ? 1 : 0;
  return live.size();
}

bool scenario_runner::do_heal(phase_metrics* out) {
  if (!be_.heal()) return false;
  be_.settle();
  if (out != nullptr) out->legal = be_.legal() ? 1 : 0;
  return true;
}

bool scenario_runner::do_degrade(const degrade_links_phase& p,
                                 phase_metrics* out) {
  (void)out;
  return be_.degrade_links(p.latency_factor, p.extra_loss, p.ramp_rounds);
}

void scenario_runner::do_ramp(phase_ctx ctx, const param_ramp_phase& p,
                              metrics_recorder& rec) {
  for (std::size_t step = 0; step < p.steps; ++step) {
    const double t =
        p.steps <= 1 ? 0.0
                     : static_cast<double>(step) /
                           static_cast<double>(p.steps - 1);
    const double value = p.from + (p.to - p.from) * t;

    phase_metrics m;
    m.phase = "param_ramp";
    m.ramp = value;
    const auto before = be_.counters();
    switch (p.target) {
      case ramp_target::churn_ops: {
        churn_wave_phase w;
        w.ops = static_cast<std::size_t>(std::llround(value));
        do_churn(ctx, w, &m);
        do_converge(p.converge_rounds, &m);
        break;
      }
      case ramp_target::publish_count:
        do_batch_sweep(
            ctx,
            publish_batch_phase{static_cast<std::size_t>(std::llround(value)),
                                1, p.family},
            &m);
        break;
      case ramp_target::crash_fraction: {
        crash_burst_phase c;
        c.fraction = value;
        if (be_.can(cap_crash)) {
          do_crash(ctx, c, &m);
          do_converge(p.converge_rounds, &m);
        } else {
          m.skipped = true;
        }
        break;
      }
    }
    finish_row(m, before);
    rec.add(std::move(m));
  }
}

// ------------------------------------------------------------ execution

void scenario_runner::finish_row(phase_metrics& m,
                                 const backend_counters& before) {
  const auto after = be_.counters();
  m.messages = after.messages - before.messages;
  m.rebuilds = after.rebuilds - before.rebuilds;
  // Backends without cap_stabilize never advance these counters, so the
  // deltas record an explicit 0 (not an absent cell) — the schema stays
  // uniform across backends.
  m.stabilize_visited = after.stabilize_visited - before.stabilize_visited;
  m.stabilize_skipped = after.stabilize_skipped - before.stabilize_skipped;
  m.population = be_.population();
}

void scenario_runner::execute(phase_ctx ctx, const phase& p,
                              metrics_recorder& rec) {
  if (std::holds_alternative<param_ramp_phase>(p)) {
    do_ramp(ctx, std::get<param_ramp_phase>(p), rec);
    return;
  }

  phase_metrics m;
  m.phase = phase_name(p);
  const auto before = be_.counters();

  if (const auto* pop = std::get_if<populate_phase>(&p)) {
    do_populate(ctx, pop->count, pop->filters, &m);
  } else if (const auto* sweep = std::get_if<publish_sweep_phase>(&p)) {
    do_batch_sweep(ctx, publish_batch_phase{sweep->count, 1, sweep->family},
                   &m);
  } else if (const auto* bsweep = std::get_if<publish_batch_phase>(&p)) {
    do_batch_sweep(ctx, *bsweep, &m);
  } else if (const auto* churn = std::get_if<churn_wave_phase>(&p)) {
    if (be_.can(cap_unsubscribe)) {
      do_churn(ctx, *churn, &m);
    } else {
      m.skipped = true;
    }
  } else if (const auto* crash = std::get_if<crash_burst_phase>(&p)) {
    if (be_.can(cap_crash)) {
      do_crash(ctx, *crash, &m);
    } else {
      m.skipped = true;
    }
  } else if (const auto* leave =
                 std::get_if<controlled_leave_wave_phase>(&p)) {
    if (be_.can(cap_unsubscribe)) {
      do_leave(ctx, *leave, &m);
    } else {
      m.skipped = true;
    }
  } else if (const auto* restart = std::get_if<restart_burst_phase>(&p)) {
    if (be_.can(cap_restart)) {
      do_restart(ctx, restart->count, &m);
    } else {
      m.skipped = true;
    }
  } else if (const auto* corrupt = std::get_if<corruption_burst_phase>(&p)) {
    if (be_.can(cap_corruption)) {
      do_corrupt(ctx, corrupt->rate, &m);
    } else {
      m.skipped = true;
    }
  } else if (const auto* conv = std::get_if<converge_phase>(&p)) {
    do_converge(conv->max_rounds, &m);
  } else if (const auto* steps = std::get_if<step_rounds_phase>(&p)) {
    if (be_.can(cap_stabilize)) {
      do_steps(steps->rounds, &m);
    } else {
      // Backends without round semantics (net_backend: wall-clock drives
      // stabilization) record an honest skip instead of a no-op row.
      m.skipped = true;
    }
  } else if (const auto* cut = std::get_if<partition_phase>(&p)) {
    if (be_.can(cap_partition)) {
      do_partition(ctx, cut->fraction, &m);
    } else {
      m.skipped = true;
    }
  } else if (std::holds_alternative<heal_phase>(p)) {
    if (be_.can(cap_partition)) {
      do_heal(&m);
    } else {
      m.skipped = true;
    }
  } else if (const auto* deg = std::get_if<degrade_links_phase>(&p)) {
    if (be_.can(cap_degrade)) {
      do_degrade(*deg, &m);
    } else {
      m.skipped = true;
    }
  }

  finish_row(m, before);
  rec.add(std::move(m));
}

metrics_recorder scenario_runner::run(const scenario& sc) {
  metrics_recorder rec(be_.name(), sc.name, sc.workload.seed);
  // Fresh RNG and run-local filter/crash state per run: the same
  // scenario + seed issues the identical operation sequence whatever ran
  // before (and whatever the backend is — backends never consume this
  // stream).
  util::rng run_rng(sc.workload.seed);
  std::vector<spatial::box> run_filters;
  std::vector<sub_id> run_crashed;
  phase_ctx ctx{sc.workload, run_rng, run_filters, run_crashed};
  for (const auto& p : sc.timeline) execute(ctx, p, rec);

  phase_metrics m;
  m.phase = "shape";
  const auto before = be_.counters();
  const auto s = be_.shape();
  m.height = s.height;
  m.max_degree = s.max_degree;
  m.avg_degree = s.avg_degree;
  m.routing_state = s.routing_state;
  m.legal = be_.legal() ? 1 : 0;
  finish_row(m, before);
  rec.add(std::move(m));
  return rec;
}

// ------------------------------------------------------------ primitives

std::vector<sub_id> scenario_runner::populate(std::size_t n) {
  return do_populate(own_ctx(), n, {}, nullptr);
}

sub_id scenario_runner::add(const spatial::box& filter) {
  filters_.push_back(filter);
  return be_.subscribe(filter);
}

sweep_stats scenario_runner::publish_sweep(std::size_t count,
                                           workload::event_family family) {
  return do_batch_sweep(own_ctx(), publish_batch_phase{count, 1, family},
                        nullptr);
}

sweep_stats scenario_runner::publish_batch(std::size_t count,
                                           std::size_t batch,
                                           workload::event_family family) {
  return do_batch_sweep(own_ctx(), publish_batch_phase{count, batch, family},
                        nullptr);
}

int scenario_runner::converge(int max_rounds) {
  return do_converge(max_rounds, nullptr);
}

std::size_t scenario_runner::churn_wave(std::size_t ops, double join_fraction,
                                        std::size_t min_population) {
  return do_churn(own_ctx(),
                  churn_wave_phase{ops, join_fraction, min_population},
                  nullptr);
}

std::size_t scenario_runner::crash_burst(double fraction, std::size_t count,
                                         bool include_root) {
  return do_crash(own_ctx(),
                  crash_burst_phase{fraction, count, include_root}, nullptr);
}

std::size_t scenario_runner::leave_wave(double fraction, std::size_t count) {
  return do_leave(own_ctx(),
                  controlled_leave_wave_phase{fraction, count}, nullptr);
}

std::size_t scenario_runner::restart_burst(std::size_t count) {
  return do_restart(own_ctx(), count, nullptr);
}

std::size_t scenario_runner::corrupt(double rate) {
  return do_corrupt(own_ctx(), rate, nullptr);
}

int scenario_runner::step_rounds(int rounds) {
  return do_steps(rounds, nullptr);
}

std::size_t scenario_runner::partition(double fraction) {
  return do_partition(own_ctx(), fraction, nullptr);
}

bool scenario_runner::heal() { return do_heal(nullptr); }

bool scenario_runner::degrade_links(double latency_factor, double extra_loss,
                                    double ramp_rounds) {
  return do_degrade(
      degrade_links_phase{latency_factor, extra_loss, ramp_rounds}, nullptr);
}

}  // namespace drt::engine
