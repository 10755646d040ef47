// Quiescence-aware stabilization overhead (DESIGN.md §11).
//
// The tentpole claim: with dirty-set scheduling, the cost of a
// maintenance round is proportional to *change*, not population.  The
// workload populates an N-peer shard forest, lets it go quiescent, and
// then measures stabilization rounds in two regimes, at two strides:
// `full` is sweep_stride 1 (the paper's schedule) and `dirty` is
// sweep_stride 16.
//
//  * quiescent — no membership change at all.  Full still runs one pass
//    per peer per round; dirty runs only the background sweep
//    (population / sweep_stride) plus each shard's always-on root.  The
//    TIMED region of the benchmark is exactly these rounds, so the
//    tier-1 gate tracks stabilizer wall-clock per round directly, and
//    the dirty entry is expected >= 5x below the full entry at 100k.
//  * churning — a fixed number of crash+restart pairs per round
//    (reported in the churn_* counters, measured outside the timed
//    region).  Here the two strides converge: repair work dominates and
//    dirty pays it like full does — O(changed), as designed.
//
// Populations: 100k at 4 shards x {full, dirty} always registered (the
// tier-1 point scripts/compare_benches.sh gates); 1M at 4 shards only
// when DRT_MILLION_PEER is set (minutes of wall-clock, run once per PR
// for the committed artifact).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "engine/backends.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::util::table;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// sweep_stride of the `dirty` rows; `full` rows run the default, 1.
constexpr std::size_t kDirtyStride = 16;

void run_overhead(benchmark::State& state, std::size_t n, std::size_t shards,
                  bool dirty) {
  drt::engine::overlay_backend_config cfg;
  // Same scale knob as bench_million_peer: a stretched stabilize cadence
  // so populate is not drowned in O(N^2/2) stabilizer firings — each
  // step_round() still advances exactly one period, firing every due
  // pass whatever the period's length.
  cfg.dr.stabilize_period = 5000.0;
  if (dirty) cfg.dr.sweep_stride = kDirtyStride;
  cfg.net.seed = 2007;

  const int quiescent_rounds = 8;
  const int churn_rounds = 4;
  const std::size_t churn_pairs = std::max<std::size_t>(16, n / 1000);

  double quiescent_s = 0.0;
  double churn_s = 0.0;
  std::uint64_t q_visited = 0, q_skipped = 0, q_msgs = 0;
  std::uint64_t c_visited = 0, c_msgs = 0;

  for (auto _ : state) {
    state.PauseTiming();
    drt::engine::drtree_backend be(cfg, shards);
    drt::util::rng rng(cfg.net.seed ^ (n * 31 + shards));
    const auto& ws = cfg.dr.workspace;
    const double wx = ws.hi[0] - ws.lo[0];
    const double wy = ws.hi[1] - ws.lo[1];
    auto small_filter = [&] {
      const double w = rng.uniform_real(wx * 0.001, wx * 0.005);
      const double h = rng.uniform_real(wy * 0.001, wy * 0.005);
      const double x = rng.uniform_real(ws.lo[0], ws.hi[0] - w);
      const double y = rng.uniform_real(ws.lo[1], ws.hi[1] - h);
      return drt::geo::make_rect2(x, y, x + w, y + h);
    };
    for (std::size_t i = 0; i < n; ++i) be.subscribe(small_filter());
    be.settle();
    // Warm-up: drain the join-time dirty backlog so the timed rounds
    // measure the steady quiescent state, not the populate tail.
    for (int r = 0; r < 4; ++r) be.step_round();

    // ---- timed region: quiescent maintenance rounds only ----
    const auto before = be.counters();
    auto t0 = std::chrono::steady_clock::now();
    state.ResumeTiming();
    for (int r = 0; r < quiescent_rounds; ++r) be.step_round();
    state.PauseTiming();
    quiescent_s = seconds_since(t0);
    const auto after_q = be.counters();
    q_visited = after_q.stabilize_visited - before.stabilize_visited;
    q_skipped = after_q.stabilize_skipped - before.stabilize_skipped;
    q_msgs = after_q.messages - before.messages;

    // ---- untimed: the same rounds under steady churn ----
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < churn_rounds; ++r) {
      std::vector<drt::engine::sub_id> victims;
      victims.reserve(churn_pairs);
      while (victims.size() < churn_pairs) {
        const auto s = static_cast<drt::engine::sub_id>(rng.index(n));
        if (be.crash(s)) victims.push_back(s);
      }
      for (const auto v : victims) be.restart(v);
      be.step_round();
    }
    churn_s = seconds_since(t0);
    const auto after_c = be.counters();
    c_visited = after_c.stabilize_visited - after_q.stabilize_visited;
    c_msgs = after_c.messages - after_q.messages;
    state.ResumeTiming();
  }

  const double q_round_s = quiescent_s / quiescent_rounds;
  const double c_round_s = churn_s / churn_rounds;
  state.counters["quiescent_round_s"] = q_round_s;
  state.counters["churn_round_s"] = c_round_s;
  state.counters["quiescent_visited_per_round"] =
      static_cast<double>(q_visited) / quiescent_rounds;
  state.counters["quiescent_skipped_per_round"] =
      static_cast<double>(q_skipped) / quiescent_rounds;
  state.counters["churn_visited_per_round"] =
      static_cast<double>(c_visited) / churn_rounds;

  results::instance().set_headers(
      {"N", "shards", "mode", "quiesc_s/round", "visited/round",
       "skipped/round", "msgs/round", "churn_s/round", "churn_visited",
       "churn_msgs"});
  results::instance().add_row(
      {table::cell(n), table::cell(shards), dirty ? "dirty" : "full",
       table::cell(q_round_s, 4),
       table::cell(static_cast<double>(q_visited) / quiescent_rounds, 0),
       table::cell(static_cast<double>(q_skipped) / quiescent_rounds, 0),
       table::cell(static_cast<double>(q_msgs) / quiescent_rounds, 0),
       table::cell(c_round_s, 4),
       table::cell(static_cast<double>(c_visited) / churn_rounds, 0),
       table::cell(static_cast<double>(c_msgs) / churn_rounds, 0)});
}

void BM_QuiescentOverhead(benchmark::State& state) {
  run_overhead(state, static_cast<std::size_t>(state.range(0)),
               static_cast<std::size_t>(state.range(1)), state.range(2) != 0);
}

// The gated full-scale sweep (see bench_million_peer for the pattern).
const bool registered_million = [] {
  if (std::getenv("DRT_MILLION_PEER") == nullptr) return false;
  for (const int dirty : {0, 1}) {
    benchmark::RegisterBenchmark(
        dirty != 0 ? "BM_QuiescentOverhead/1000000/4/dirty"
                   : "BM_QuiescentOverhead/1000000/4/full",
        [dirty](benchmark::State& s) {
          run_overhead(s, 1000000, 4, dirty != 0);
        })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  return true;
}();

}  // namespace

BENCHMARK(BM_QuiescentOverhead)
    ->Args({100000, 4, 0})
    ->Args({100000, 4, 1})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

DRT_BENCH_MAIN(
    "Quiescent stabilization overhead: dirty-set vs full scheduling",
    "The timed region is the quiescent maintenance rounds alone "
    "(populate/settle are excluded via PauseTiming), so cpu_ns_per_op IS "
    "the stabilizer wall-clock: expect the dirty entry >= 5x below the "
    "full entry at equal N, with churn_round_s converging between modes "
    "(repair work is O(changed) either way); set DRT_MILLION_PEER=1 to "
    "also run the million-peer configurations.")
