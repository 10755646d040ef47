// Microbenchmarks of the simulator substrate itself: raw send→deliver
// message throughput (empty and dr_msg-sized payloads), steady-state
// event-queue ops at 10k/100k/1M queued events, and the stabilizer's
// timer schedule (one timer per process, re-armed a whole period ahead,
// far beyond the calendar ring).  Every overlay experiment
// (churn, loss, corruption sweeps) bottoms out in these two paths, so this
// is the bench that perf PRs against the substrate diff first
// (scripts/compare_benches.sh).
//
// The workload uses only the public simulator API, so the numbers are
// directly comparable across substrate rewrites (heap scheduler vs
// calendar queue, shared_ptr payloads vs inline envelopes).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "bench_common.h"
#include "sim/simulator.h"

namespace {

using drt::sim::process;
using drt::sim::process_id;
using drt::sim::simulator;
using drt::sim::simulator_config;

/// Payload shaped like the overlay's dr_msg (~112 bytes, trivially
/// copyable): the representative hot-path message body.
struct wire_msg {
  std::uint64_t words[14] = {};
};
static_assert(sizeof(wire_msg) == 112);

/// Counts deliveries; the cheapest possible handler, so the measurement
/// isolates the substrate cost.
struct sink : process {
  std::uint64_t seen = 0;
  void on_message(process_id, std::uint64_t, const drt::sim::envelope&) override {
    ++seen;
  }
};

/// Keeps the event queue at a constant size: every timer fire schedules
/// the next one.  Delays walk a golden-ratio low-discrepancy sequence so
/// events spread over the schedule horizon instead of piling on one
/// timestamp (no RNG: the bench stays deterministic and free of RNG cost).
struct timer_relay : process {
  void on_message(process_id, std::uint64_t, const drt::sim::envelope&) override {}
  double next_delay() {
    phase_ += 0.6180339887498949;
    if (phase_ >= 1.0) phase_ -= 1.0;
    return 0.5 + phase_;
  }
  void on_timer(std::uint64_t t) override {
    sim().schedule_timer(id(), t, next_delay());
  }
  double phase_ = 0.0;
};

constexpr int kProcs = 64;
constexpr std::uint64_t kBatch = 4096;

simulator_config core_config() {
  simulator_config cfg;
  cfg.seed = 1;  // default delays: uniform(0.5, 1.5), no loss
  return cfg;
}

void BM_SendDeliverEmpty(benchmark::State& state) {
  simulator s(core_config());
  for (int i = 0; i < kProcs; ++i) s.add_process(std::make_unique<sink>());
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      const auto from = static_cast<process_id>(i & (kProcs - 1));
      const auto to = static_cast<process_id>((i * 7 + 1) & (kProcs - 1));
      s.send(from, to, i);
    }
    s.run_steps(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.counters["msgs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SendDeliverEmpty);

void BM_SendDeliverPayload(benchmark::State& state) {
  simulator s(core_config());
  for (int i = 0; i < kProcs; ++i) s.add_process(std::make_unique<sink>());
  wire_msg body;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      const auto from = static_cast<process_id>(i & (kProcs - 1));
      const auto to = static_cast<process_id>((i * 7 + 1) & (kProcs - 1));
      body.words[0] = i;
      s.send<wire_msg>(from, to, i, body);
    }
    s.run_steps(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.counters["msgs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SendDeliverPayload);

/// Steady-state schedule+pop cost with `range(0)` events queued: every
/// executed timer re-arms itself, so each handler step is exactly one pop
/// plus one push at constant queue depth.
void BM_QueueOps(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  simulator s(core_config());
  auto relay = std::make_unique<timer_relay>();
  auto* r = relay.get();
  const auto id = s.add_process(std::move(relay));
  for (std::uint64_t i = 0; i < depth; ++i) {
    s.schedule_timer(id, i, r->next_delay());
  }
  for (auto _ : state) {
    s.run_steps(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.counters["ops_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QueueOps)->Arg(10000)->Arg(100000)->Arg(1000000);

/// perfbench's stabilize period: at the default delays (bucket width
/// 0.125) it spans 400 000 buckets, against a 1024-bucket ring.
constexpr double kStabilizePeriod = 50000.0;

/// One stabilize timer, re-armed exactly one period ahead when it fires.
struct stabilize_timer : process {
  void on_message(process_id, std::uint64_t, const drt::sim::envelope&) override {}
  void on_timer(std::uint64_t t) override {
    sim().schedule_timer(id(), t, kStabilizePeriod);
  }
};

/// The `churn_repair` round's schedule: `range(0)` processes, each with
/// one timer whose first phase is spread over the period (golden-ratio
/// sequence, so first phases arrive out of time order), then re-armed a
/// period ahead on every fire.  At 5000 processes consecutive fires are
/// 10 units (80 buckets) apart; each handler step is one pop plus one
/// far push.
void BM_StabilizerTimers(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  simulator s(core_config());
  double phase = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto id = s.add_process(std::make_unique<stabilize_timer>());
    phase += 0.6180339887498949;
    if (phase >= 1.0) phase -= 1.0;
    s.schedule_timer(id, 0, phase * kStabilizePeriod);
  }
  for (auto _ : state) {
    s.run_steps(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.counters["ops_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StabilizerTimers)->Arg(5000)->Arg(100000);

}  // namespace

DRT_BENCH_MAIN("sim_core",
               "Simulator substrate microbenchmarks: send->deliver message "
               "throughput and event-queue ops at fixed queue depths")
