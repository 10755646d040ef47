// Million-peer scale run over the sharded kernel (DESIGN.md §8).
//
// The workload is the PR-gating scale story: populate N peers through
// drtree_backend over N shards, run a churn wave (crash burst, repair
// rounds, partial restarts, repair again), then a publish sweep that
// fans every event out across the shard forest.  Measured per phase in
// wall-clock seconds, plus the real protocol-state footprint from the
// instance arenas (bytes/peer) and the kernel's cross-shard traffic.
//
// Two populations:
//  * 100k at shards {1, 4} — always registered; the tier-1 gate in
//    scripts/compare_benches.sh tracks it, and the 4-shard run is
//    expected >= 2x faster than 1-shard (a join advances only its own
//    shard's clock, so the periodic stabilize passes that dominate the
//    populate fall about 4x, and crash purges scan only one shard).
//  * 1M at 4 shards — registered only when DRT_MILLION_PEER is set in
//    the environment (minutes of wall-clock; run once per PR to produce
//    the committed artifact, not in the regression loop).
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

void run_scale(benchmark::State& state, std::size_t n, std::size_t shards) {
  drt::engine::overlay_backend_config cfg;
  // Stretch the stabilize cadence: every join cascade advances sim time
  // past the default 10s period, so populate at the default would spend
  // ~N^2/2 stabilizer firings drowning the scale signal (convergence-
  // vs-cadence is bench_*_stabilize territory; churn here drives repair
  // through explicit step_round() calls, which fire every peer once per
  // round whatever the period's length).
  cfg.dr.stabilize_period = 5000.0;
  cfg.net.seed = 2007;

  const std::size_t crashes = std::max<std::size_t>(16, n / 1000);
  const std::size_t publishes = 128;

  double populate_s = 0.0;
  double churn_s = 0.0;
  double stabilize_s = 0.0;
  double publish_s = 0.0;
  double bytes_per_peer = 0.0;
  double seen_bytes_per_peer = 0.0;
  double cross_messages = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t interested = 0;

  for (auto _ : state) {
    drt::engine::drtree_backend be(cfg, shards);
    drt::util::rng rng(cfg.net.seed ^ (n * 31 + shards));
    const auto& ws = cfg.dr.workspace;
    const double wx = ws.hi[0] - ws.lo[0];
    const double wy = ws.hi[1] - ws.lo[1];
    auto small_filter = [&] {
      // ~0.0009% of the workspace area each: a handful of matches per
      // event even at a million subscriptions.
      const double w = rng.uniform_real(wx * 0.001, wx * 0.005);
      const double h = rng.uniform_real(wy * 0.001, wy * 0.005);
      const double x = rng.uniform_real(ws.lo[0], ws.hi[0] - w);
      const double y = rng.uniform_real(ws.lo[1], ws.hi[1] - h);
      return drt::geo::make_rect2(x, y, x + w, y + h);
    };

    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) be.subscribe(small_filter());
    populate_s = seconds_since(t0);

    // Churn: an uncontrolled crash burst, one repair round, revive half
    // the victims with their stale state, repair again.  The stabilizer
    // rounds are timed separately so the JSON splits repair wall-clock
    // from the crash/restart bookkeeping (churn_s stays the phase total,
    // comparable with older artifacts).
    t0 = std::chrono::steady_clock::now();
    stabilize_s = 0.0;
    std::vector<drt::engine::sub_id> victims;
    victims.reserve(crashes);
    while (victims.size() < crashes) {
      const auto s = static_cast<drt::engine::sub_id>(rng.index(n));
      if (be.crash(s)) victims.push_back(s);
    }
    auto ts = std::chrono::steady_clock::now();
    be.step_round();
    stabilize_s += seconds_since(ts);
    for (std::size_t i = 0; i < victims.size() / 2; ++i) {
      be.restart(victims[i]);
    }
    ts = std::chrono::steady_clock::now();
    be.step_round();
    stabilize_s += seconds_since(ts);
    churn_s = seconds_since(t0);

    // Publish sweep: every event publishes in one shard and fans out to
    // the rest through the kernel barrier.
    t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < publishes; ++i) {
      auto pub = static_cast<drt::engine::sub_id>(rng.index(n));
      while (!be.alive(pub)) {
        pub = static_cast<drt::engine::sub_id>(rng.index(n));
      }
      const drt::spatial::pt value{{rng.uniform_real(ws.lo[0], ws.hi[0]),
                                    rng.uniform_real(ws.lo[1], ws.hi[1])}};
      const auto rep = be.publish(pub, value);
      delivered += rep.delivered;
      interested += rep.interested;
    }
    publish_s = seconds_since(t0);

    const auto arena = be.arena_stats();
    bytes_per_peer = static_cast<double>(arena.total_bytes()) /
                     static_cast<double>(be.population());
    seen_bytes_per_peer = static_cast<double>(arena.seen_bytes) /
                          static_cast<double>(be.population());
    cross_messages =
        static_cast<double>(be.kernel().metrics().cross_messages);
  }

  state.counters["populate_s"] = populate_s;
  state.counters["churn_s"] = churn_s;
  state.counters["stabilize_s"] = stabilize_s;
  state.counters["publish_s"] = publish_s;
  state.counters["arena_bytes_per_peer"] = bytes_per_peer;
  state.counters["seen_bytes_per_peer"] = seen_bytes_per_peer;
  state.counters["cross_messages"] = cross_messages;
  state.counters["joins_per_s"] =
      populate_s == 0.0 ? 0.0 : static_cast<double>(n) / populate_s;

  results::instance().set_headers({"N", "shards", "populate_s", "churn_s",
                                   "stabilize_s", "publish_s", "joins/s",
                                   "arena_B/peer", "seen_B/peer",
                                   "cross_msgs", "delivered", "interested"});
  results::instance().add_row(
      {table::cell(n), table::cell(shards), table::cell(populate_s, 2),
       table::cell(churn_s, 2), table::cell(stabilize_s, 2),
       table::cell(publish_s, 2),
       table::cell(populate_s == 0.0 ? 0.0
                                     : static_cast<double>(n) / populate_s,
                   0),
       table::cell(bytes_per_peer, 1), table::cell(seen_bytes_per_peer, 1),
       table::cell(static_cast<std::size_t>(cross_messages)),
       table::cell(delivered), table::cell(interested)});
}

void BM_ShardedScale(benchmark::State& state) {
  run_scale(state, static_cast<std::size_t>(state.range(0)),
            static_cast<std::size_t>(state.range(1)));
}

// The gated full-scale run: DRT_BENCH_MAIN owns main(), so the extra
// registration happens in a static initializer guarded by the env var.
const bool registered_million = [] {
  if (std::getenv("DRT_MILLION_PEER") == nullptr) return false;
  benchmark::RegisterBenchmark("BM_ShardedScale/1000000/4",
                               [](benchmark::State& s) {
                                 run_scale(s, 1000000, 4);
                               })
      ->Iterations(1)
      ->Unit(benchmark::kSecond);
  return true;
}();

}  // namespace

BENCHMARK(BM_ShardedScale)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

DRT_BENCH_MAIN(
    "Sharded kernel scale: churn + publish at 100k/1M peers",
    "Expect the 4-shard run >= 2x faster than 1-shard at equal N (a join "
    "advances only its own shard's clock, so populate fires ~4x fewer "
    "periodic stabilize passes) with per-peer protocol state flat in N; "
    "set DRT_MILLION_PEER=1 to also run the million-peer 4-shard "
    "configuration.")
