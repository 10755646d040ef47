#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "drtree/messages.h"
#include "engine/backends.h"
#include "rpc/client.h"
#include "rpc/service.h"
#include "rpc/wire.h"
#include "spans.h"
#include "stats.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace perfbench {

namespace engine = drt::engine;
namespace overlay = drt::overlay;
namespace rpc = drt::rpc;
namespace sim = drt::sim;
namespace spatial = drt::spatial;
namespace util = drt::util;
namespace workload = drt::workload;

namespace {

using engine::sub_id;
using sharded = engine::sharded_drtree_backend;

// ------------------------------------------------------------- constants

/// Stabilizer period in virtual time.  Every drain advances virtual time,
/// so at the library default of 10 a 5k-peer overlay fires about one
/// stabilizer pass per peer per op and every workload would measure only
/// the stabilizer; at 50 000 a 10k-peer publish fires ~1.3 passes.
/// step_round() still runs every peer once per round.
constexpr double kStabilizePeriod = 50000.0;

constexpr std::size_t kPublishPeers = 10000;
constexpr std::size_t kShardedShards = 4;
constexpr std::size_t kChurnPeers = 5000;
constexpr std::size_t kDrtdPeers = 2000;

/// Untraced runs split their time over several parts, each an overlay
/// built from its own input set derived from the seed, and pool the
/// samples: one overlay's shape (its height, where its interest clusters
/// lie) moves every metric by several percent from seed to seed, and
/// pooling k shapes cuts that by about the square root of k.  setup_s is
/// the median of the parts' set-up times.  Traced runs use part 0.
constexpr std::size_t kPublishParts = 6;
/// churn_repair needs more: an epoch takes two or three rounds, about
/// half and half, so its latency is bimodal and the median sits between
/// the modes, where the mix a seed draws moves it.
constexpr std::size_t kChurnParts = 8;
/// drtd_service needs more: a request's deliveries and pushes, and with
/// them its latency, follow the filter set, whose per-seed mean moves
/// messages per request by ±6 %.
constexpr std::size_t kDrtdParts = 6;
/// sharded_publish needs the most: each publish is injected at the root
/// of every other shard, and inject_publish finds that root by walking
/// the shard's peers in id order, so an op's cost grows with the roots'
/// ids — a uniform draw per shard and per overlay, which moves one
/// overlay's median op latency between 50 and 300 µs.
constexpr std::size_t kShardedParts = 48;
/// Pre-generated publish ops (cycled when a run outlasts them).
constexpr std::size_t kOpInputs = std::size_t{1} << 17;
/// Pre-generated churn epochs (cycled likewise).
constexpr std::size_t kEpochInputs = 512;
constexpr std::size_t kWarmupPublishes = 500;
constexpr std::size_t kWarmupEpochs = 2;
/// Rounds a set-up may take to become legal, and an epoch to re-legalize.
constexpr std::size_t kSetupRoundBudget = 30;
constexpr std::size_t kEpochRoundBudget = 50;
/// Every timed phase runs at least this many ops, so p90 always has
/// kMinBeyond samples beyond it.
constexpr std::size_t kMinOps = 100;

/// Ops each of `parts` parts of an untraced run runs at least: its count
/// window, and its share of kMinOps.
constexpr std::size_t part_min_ops(std::size_t window, std::size_t parts) {
  return std::max(window, (kMinOps + parts - 1) / parts);
}

/// Count windows: msgs_per_op and rounds_per_op average the first
/// `window` ops of each part, which every run completes, so the counts
/// repeat exactly for a seed however many ops the clock allows.
constexpr std::size_t kPublishWindow = 3000;
constexpr std::size_t kShardedWindow = 500;
constexpr std::size_t kChurnWindow = 25;

// drtd_service.
constexpr std::size_t kDrtdConns = 2;
constexpr std::size_t kDrtdWarmChunk = 500;   ///< publishes between STATs
constexpr std::size_t kDrtdWarmChunks = 100;  ///< warm-up budget
constexpr std::size_t kDrtdThreadWarmup = 200;
constexpr std::size_t kDrtdRequests = kOpInputs / kDrtdConns;
constexpr std::size_t kPings = 2000;
constexpr std::size_t kCodecPairs = 1000000;
constexpr std::size_t kInprocReplayCap = 20000;

/// Spans kept in the Chrome trace file per thread (all stay in memory
/// for the metrics).
constexpr std::size_t kTraceFileSpans = 200000;

// ------------------------------------------------------------ span names

enum layer : std::uint32_t {
  kOp,
  kSubscribe,
  kUnsubscribe,
  kCrash,
  kRestart,
  kRound,
  kChecker,
  kPublishBegin,
  kDrain,
  kPublishFinish,
  kPointQuery,
  kRpcPublish,
  kRpcSolo,
  kRpcPing,
  kInprocPublish,
};

constexpr const char* kLayerNames[] = {
    "op",                   "engine.subscribe",     "engine.unsubscribe",
    "engine.crash",         "engine.restart",       "drtree.round",
    "drtree.checker",       "drtree.publish_begin", "sim.drain",
    "drtree.publish_finish", "rtree.point_query",   "rpc.publish",
    "rpc.publish_solo",     "rpc.ping",             "drtree.inproc_publish",
};

/// A log whose name ids are the `layer` values.
span_log make_log() {
  span_log log;
  for (const char* n : kLayerNames) log.name_id(n);
  return log;
}

/// Set-up spans carry op id 0; timed ops are numbered from 1.
constexpr std::uint64_t kSetupOp = 0;

/// The per-layer metrics of BENCHMARK.json, in its order.  A traced run
/// reports every one; a layer the workload never calls reads 0 with a
/// note saying so.
struct layer_metric {
  const char* name;
  const char* unit;
};
constexpr layer_metric kPerLayer[] = {
    {"engine.subscribe_us", "us"},
    {"engine.subscribe_msgs", "msgs"},
    {"engine.unsubscribe_us", "us"},
    {"engine.crash_us", "us"},
    {"engine.restart_us", "us"},
    {"engine.op_self_us", "us"},
    {"drtree.round_us", "us"},
    {"drtree.passes_per_round", "count"},
    {"drtree.rounds_per_op", "rounds"},
    {"drtree.repairs_per_op", "count"},
    {"drtree.checker_us", "us"},
    {"drtree.publish_begin_us", "us"},
    {"sim.drain_us", "us"},
    {"drtree.publish_finish_us", "us"},
    {"rtree.point_query_us", "us"},
    {"sim.steps_per_op", "count"},
    {"sim.ns_per_step", "ns"},
    {"sim.timers_per_op", "count"},
    {"drtree.passes_per_op", "count"},
    {"sim.dead_msgs_per_op", "count"},
    {"drtree.hops_mean", "hops"},
    {"drtree.deliveries_per_op", "count"},
    {"drtree.fp_share", "ratio"},
    {"sim.windows_per_op", "count"},
    {"sim.barriers_per_op", "count"},
    {"sim.idle_window_share", "ratio"},
    {"sim.cross_msgs_per_op", "count"},
    {"drtree.arena_bytes_per_peer", "B"},
    {"drtree.height", "levels"},
    {"rpc.ping_us", "us"},
    {"rpc.solo_rtt_us", "us"},
    {"drtree.inproc_publish_us", "us"},
    {"rpc.codec_ns", "ns"},
    {"rpc.frames_per_op", "count"},
    {"rpc.pushes_per_op", "count"},
    {"trace.p50_overhead_us", "us"},
    {"trace.ops_per_s_overhead", "1/s"},
};

// ---------------------------------------------------------------- inputs

/// splitmix64 of (seed, stream): independent input streams per seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                    (stream + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum stream : std::uint64_t {
  kFilterStream = 1,
  kOpStream = 2,
  kSimStream = 3,
  kChurnStream = 4,
  kDrtdStream = 5,
  kProbeStream = 6,
  kPartStream = 16,  ///< + part index
};

std::uint64_t part_seed(std::uint64_t seed, std::size_t part) {
  return derive(seed, kPartStream + part);
}

engine::overlay_backend_config overlay_config(std::uint64_t seed) {
  engine::overlay_backend_config cfg;
  cfg.dr.stabilize_period = kStabilizePeriod;
  cfg.net.seed = derive(seed, kSimStream);
  return cfg;
}

/// Clustered filters with sides 0.5–2 % of the workspace, the parameters
/// of the repository's publish benches.
std::vector<spatial::box> make_filters(std::uint64_t seed, std::size_t n) {
  util::rng rng(derive(seed, kFilterStream));
  workload::subscription_params params;
  params.min_side_frac = 0.005;
  params.max_side_frac = 0.02;
  return workload::make_subscriptions(
      workload::subscription_family::clustered, n, rng, params);
}

const spatial::box& workspace() {
  static const spatial::box ws = overlay::dr_config{}.workspace;
  return ws;
}

struct publish_inputs {
  std::vector<spatial::box> filters;
  std::vector<std::uint64_t> picks;  ///< publisher = live[pick % live]
  std::vector<spatial::pt> points;   ///< uniform over the workspace
};

publish_inputs make_publish_inputs(std::uint64_t seed, std::size_t peers,
                                   std::size_t ops) {
  publish_inputs in;
  in.filters = make_filters(seed, peers);
  util::rng rng(derive(seed, kOpStream));
  in.picks.reserve(ops);
  in.points.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    in.picks.push_back(rng.next_u64());
    in.points.push_back(workload::make_event_point(
        workload::event_family::uniform, rng, workspace()));
  }
  return in;
}

struct churn_inputs {
  std::size_t peers = 0;
  std::size_t k = 0;                    ///< per-epoch joins/leaves/crashes
  std::vector<spatial::box> initial;    ///< peers + k set-up filters
  std::vector<spatial::box> joins;      ///< k fresh filters per epoch
  std::vector<std::uint64_t> picks;     ///< 2k victim picks per epoch
  std::vector<std::uint64_t> setup_picks;  ///< k set-up crash victims
};

churn_inputs make_churn_inputs(std::uint64_t seed, std::size_t peers,
                               std::size_t epochs) {
  churn_inputs in;
  in.peers = peers;
  in.k = std::max<std::size_t>(1, peers / 400);
  // One generator call, so fresh joins share the initial filters'
  // interest clusters.
  auto all = make_filters(seed, peers + in.k + in.k * epochs);
  in.initial.assign(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(peers + in.k));
  in.joins.assign(all.begin() + static_cast<std::ptrdiff_t>(peers + in.k),
                  all.end());
  util::rng rng(derive(seed, kChurnStream));
  for (std::size_t i = 0; i < in.k; ++i) in.setup_picks.push_back(rng.next_u64());
  for (std::size_t i = 0; i < 2 * in.k * epochs; ++i) {
    in.picks.push_back(rng.next_u64());
  }
  return in;
}

struct drtd_inputs {
  std::vector<spatial::box> filters;
  std::vector<std::uint64_t> warm_picks;  ///< connection 0's warm-up
  std::vector<spatial::pt> warm_points;
  std::array<std::vector<std::uint64_t>, kDrtdConns> picks;
  std::array<std::vector<spatial::pt>, kDrtdConns> points;
};

/// `matching` events: each point lies inside a random subscription, so
/// every request delivers and pushes.
drtd_inputs make_drtd_inputs(std::uint64_t seed) {
  drtd_inputs in;
  in.filters = make_filters(seed, kDrtdPeers);
  util::rng rng(derive(seed, kDrtdStream));
  const auto draw = [&](std::vector<std::uint64_t>& picks,
                        std::vector<spatial::pt>& points, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      picks.push_back(rng.next_u64());
      points.push_back(workload::make_event_point(
          workload::event_family::matching, rng, workspace(), in.filters));
    }
  };
  draw(in.warm_picks, in.warm_points, kDrtdWarmChunk * kDrtdWarmChunks);
  for (std::size_t c = 0; c < kDrtdConns; ++c) {
    draw(in.picks[c], in.points[c], kDrtdRequests);
  }
  return in;
}

// ------------------------------------------------------- overlay helpers

/// Public counters summed over shards.
struct totals {
  std::uint64_t steps = 0;
  std::uint64_t timers = 0;
  std::uint64_t dead = 0;
  std::uint64_t visited = 0;
  std::uint64_t repairs = 0;
  sim::kernel_metrics kernel{};
};

std::uint64_t repair_count(const overlay::repair_stats& r) {
  return r.mbr_fixed + r.own_chain_fixed + r.rejoins + r.children_discarded +
         r.instances_dissolved + r.cover_promotions + r.compactions +
         r.redistributions + r.subtree_dissolutions;
}

totals read_totals(sharded& be) {
  totals t;
  for (std::size_t i = 0; i < be.shards(); ++i) {
    const auto& ov = be.overlay(i);
    const auto& m = ov.sim().metrics();
    t.steps += m.handler_steps;
    t.timers += m.timers_fired;
    t.dead += m.messages_to_dead;
    t.visited += ov.stab_stats().visited;
    t.repairs += repair_count(ov.total_repairs());
  }
  t.kernel = be.kernel().metrics();
  return t;
}

/// step_round() until legal(), with legality checks timed apart (they
/// never count as op latency).  Returns the rounds taken, or nullopt when
/// the budget ran out.
std::optional<std::size_t> legalize(sharded& be, std::size_t budget,
                                    span_log* log, std::uint64_t op,
                                    std::int64_t& checker_ns) {
  for (std::size_t rounds = 0;; ++rounds) {
    const auto t0 = now_ns();
    bool legal = false;
    {
      scoped_span s(log, kChecker, op);
      legal = be.legal();
    }
    checker_ns += now_ns() - t0;
    if (legal) return rounds;
    if (rounds == budget) return std::nullopt;
    scoped_span s(log, kRound, op);
    be.step_round();
  }
}

/// backend::subscribe; traced, the span also counts the join's messages
/// (subscribe settles, so they are all sent before it returns).
sub_id subscribe(sharded& be, const spatial::box& filter, span_log* log,
                 std::uint64_t op) {
  const auto msgs0 = log != nullptr ? be.counters().messages : 0;
  scoped_span s(log, kSubscribe, op);
  const auto id = be.subscribe(filter);
  if (log != nullptr) s.add_count(be.counters().messages - msgs0);
  return id;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ op results

struct phase_result {
  std::vector<double> latency_us;
  std::vector<op_record> ops;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::uint64_t hops = 0;             ///< sum of per-publish max hops
  std::uint64_t false_positives = 0;
  std::vector<std::string> errors;    ///< first few failures, explained
  totals before{};
  totals after{};

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(why));
  }
  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(latency_us.size()) / wall_s : 0;
  }
};

/// Mean of `field` over the first `window` ops of each phase, with the
/// number of ops it covers.
std::pair<double, std::size_t> window_mean(
    const std::vector<const phase_result*>& phases, std::size_t window,
    std::uint64_t op_record::*field) {
  std::uint64_t sum = 0;
  std::size_t n = 0;
  for (const auto* ph : phases) {
    const auto k = std::min(window, ph->ops.size());
    for (std::size_t i = 0; i < k; ++i) sum += ph->ops[i].*field;
    n += k;
  }
  return {n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n), n};
}

std::vector<const phase_result*> pointers(const std::vector<phase_result>& v) {
  std::vector<const phase_result*> out;
  for (const auto& ph : v) out.push_back(&ph);
  return out;
}

double p50_of(const std::vector<double>& samples) {
  auto copy = samples;
  return exact_percentile(copy, 0.5).value;
}

// -------------------------------------------------- publish workloads

struct publish_overlay {
  std::unique_ptr<sharded> be;
  std::vector<sub_id> publishers;
  /// Mirrors the backend's own event-id sequence, which the traced
  /// split path continues.
  std::uint64_t next_event_id = 1;
  double setup_s = 0.0;
};

/// Build, legalize and warm one publish overlay.
std::optional<publish_overlay> build_publish_overlay(
    const publish_inputs& in, std::size_t shards, std::uint64_t seed,
    span_log* log, std::string& error) {
  const auto t0 = now_ns();
  publish_overlay ov;
  ov.be = std::make_unique<sharded>(overlay_config(seed), shards, false);
  for (const auto& f : in.filters) subscribe(*ov.be, f, log, kSetupOp);
  std::int64_t checker_ns = 0;
  if (!legalize(*ov.be, kSetupRoundBudget, log, kSetupOp, checker_ns)) {
    error = "set-up overlay not legal within the round budget";
    return std::nullopt;
  }
  ov.publishers = ov.be->active();
  const auto warm = std::min(kWarmupPublishes, in.points.size());
  for (std::size_t i = 0; i < warm; ++i) {
    const auto pub = ov.publishers[in.picks[i] % ov.publishers.size()];
    if (ov.be->publish(pub, in.points[i]).false_negatives != 0) {
      error = "false negative during warm-up";
      return std::nullopt;
    }
    ++ov.next_event_id;
  }
  ov.setup_s = seconds_since(t0);
  return ov;
}

/// sharded_drtree_backend::publish, spelled out through the public split
/// path (publish_begin -> kernel drain -> publish_finish) so each part
/// gets a span.  Subscriptions are dealt to shards round-robin in arrival
/// order with dense local ids, so global id s is local s / shards on
/// shard s % shards.  The traced run checks that its counts equal the
/// backend's own path.
engine::delivery_report traced_publish(sharded& be, std::uint64_t id,
                                       sub_id pub, const spatial::pt& v,
                                       span_log& log, std::uint64_t op,
                                       std::vector<std::uint64_t>& before) {
  const auto shards = be.shards();
  const auto origin = static_cast<std::size_t>(pub % shards);
  const auto local = static_cast<spatial::peer_id>(pub / shards);
  scoped_span whole(&log, kOp, op);
  before.resize(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    before[i] = be.overlay(i).sim().metrics().messages_sent;
  }
  {
    scoped_span s(&log, kPublishBegin, op);
    be.overlay(origin).publish_begin(local, id, v);
    for (std::size_t d = 0; d < shards; ++d) {
      if (d == origin) continue;
      be.kernel().post(origin, d, sizeof(overlay::dr_msg),
                       [&be, d, id, v](sim::simulator&) {
                         be.overlay(d).inject_publish(id, v);
                       });
    }
  }
  {
    scoped_span s(&log, kDrain, op);
    be.kernel().settle();
  }
  engine::delivery_report rep;
  {
    scoped_span s(&log, kPublishFinish, op);
    for (std::size_t i = 0; i < shards; ++i) {
      const auto r = be.overlay(i).publish_finish(id, v, before[i]);
      rep.interested += r.interested;
      rep.delivered += r.delivered;
      rep.false_positives += r.false_positives;
      rep.false_negatives += r.false_negatives;
      rep.messages += r.messages;
      rep.max_hops = std::max(rep.max_hops, r.max_hops);
    }
  }
  if (shards > 1) rep.messages += shards - 1;  // cross-shard injections
  return rep;
}

/// The ground-truth point query publish_finish runs, timed apart
/// (outside the op's latency) on the op's point, on every shard.
void point_query(sharded& be, const spatial::pt& v, span_log& log,
                 std::uint64_t op, std::vector<spatial::peer_id>& matches) {
  scoped_span s(&log, kPointQuery, op);
  for (std::size_t i = 0; i < be.shards(); ++i) {
    be.overlay(i).matching_live_peers(v, matches);
  }
}

/// Continue `ph`'s closed loop of publishes on `ov` until `seconds` more
/// passed and `ph` holds at least `min_ops` ops.
void publish_ops(publish_overlay& ov, const publish_inputs& in,
                 double seconds, std::size_t min_ops, span_log* log,
                 phase_result& ph) {
  std::vector<std::uint64_t> before;
  std::vector<spatial::peer_id> matches;
  const auto start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t1 = start;
  for (std::size_t n = ph.ops.size(); n < min_ops || t1 < deadline; ++n) {
    const auto idx = (kWarmupPublishes + n) % in.points.size();
    const auto pub = ov.publishers[in.picks[idx] % ov.publishers.size()];
    const auto& pt = in.points[idx];
    const auto t0 = now_ns();
    const auto rep =
        log != nullptr
            ? traced_publish(*ov.be, ov.next_event_id, pub, pt, *log, n + 1,
                             before)
            : ov.be->publish(pub, pt);
    t1 = now_ns();
    ++ov.next_event_id;
    ph.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    ph.ops.push_back({rep.messages, rep.delivered, rep.false_negatives, 0});
    ph.hops += rep.max_hops;
    ph.false_positives += rep.false_positives;
    if (rep.false_negatives != 0) {
      ph.fail("publish " + std::to_string(n + 1) + ": " +
              std::to_string(rep.false_negatives) + " false negatives");
    }
    if (log != nullptr) point_query(*ov.be, pt, *log, n + 1, matches);
  }
  ph.wall_s += static_cast<double>(t1 - start) / 1e9;
}

// ----------------------------------------------------------- churn_repair

struct churn_overlay {
  std::unique_ptr<sharded> be;
  std::vector<sub_id> pending_restart;  ///< the previous epoch's crashes
  std::size_t epoch = 0;                ///< epochs run (indexes inputs)
  double setup_s = 0.0;
};

/// Draw `count` distinct live victims from `live` by the given picks.
std::vector<sub_id> draw_victims(std::vector<sub_id> live,
                                 const std::uint64_t* picks,
                                 std::size_t count) {
  std::vector<sub_id> out;
  for (std::size_t i = 0; i < count && !live.empty(); ++i) {
    const auto j = static_cast<std::size_t>(picks[i] % live.size());
    out.push_back(live[j]);
    live[j] = live.back();
    live.pop_back();
  }
  return out;
}

/// One epoch: k joins, k controlled leaves, k crashes, k restarts of the
/// previous epoch's crash victims (stale state), then step_round() until
/// legal.  Latency excludes the legality checks.
void churn_epoch(churn_overlay& c, const churn_inputs& in, span_log* log,
                 std::uint64_t op, phase_result& ph) {
  auto& be = *c.be;
  const auto k = in.k;
  const auto e = c.epoch++ % (in.joins.size() / k);
  // Victims are drawn from the pre-join population before the clock
  // starts: the draw is benchmark bookkeeping, not system work.
  const auto victims =
      draw_victims(be.active(), in.picks.data() + e * 2 * k, 2 * k);
  const auto msgs0 = be.counters().messages;
  std::int64_t checker_ns = 0;
  std::optional<std::size_t> rounds;
  bool ok = victims.size() == 2 * k;
  const auto t0 = now_ns();
  {
    scoped_span whole(log, kOp, op);
    for (std::size_t j = 0; j < k; ++j) {
      subscribe(be, in.joins[e * k + j], log, op);
    }
    for (std::size_t j = 0; j < k && ok; ++j) {
      scoped_span s(log, kUnsubscribe, op);
      ok = be.unsubscribe(victims[j]);
    }
    for (std::size_t j = k; j < victims.size() && ok; ++j) {
      scoped_span s(log, kCrash, op);
      ok = be.crash(victims[j]);
    }
    for (const auto r : c.pending_restart) {
      scoped_span s(log, kRestart, op);
      ok = be.restart(r) && ok;
    }
    rounds = legalize(be, kEpochRoundBudget, log, op, checker_ns);
  }
  const auto t1 = now_ns();
  c.pending_restart.assign(victims.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(k, victims.size())),
                           victims.end());
  ph.latency_us.push_back(static_cast<double>(t1 - t0 - checker_ns) / 1e3);
  ph.ops.push_back({be.counters().messages - msgs0, 0, 0, rounds.value_or(
                        kEpochRoundBudget + 1)});
  if (!ok) ph.fail("epoch " + std::to_string(op) + ": a membership call failed");
  if (!rounds) {
    ph.fail("epoch " + std::to_string(op) + ": not legal within " +
            std::to_string(kEpochRoundBudget) + " rounds");
  }
  if (be.population() != in.peers) {
    ph.fail("epoch " + std::to_string(op) + ": population " +
            std::to_string(be.population()) + " != " +
            std::to_string(in.peers));
  }
}

std::optional<churn_overlay> build_churn_overlay(const churn_inputs& in,
                                                 std::uint64_t seed,
                                                 span_log* log,
                                                 std::string& error) {
  const auto t0 = now_ns();
  churn_overlay c;
  c.be = std::make_unique<sharded>(overlay_config(seed), 1, false);
  for (const auto& f : in.initial) subscribe(*c.be, f, log, kSetupOp);
  // peers + k joined; k of them crash now and are the first epoch's
  // restarts, so every epoch starts and ends with `peers` live.
  c.pending_restart = draw_victims(c.be->active(), in.setup_picks.data(), in.k);
  for (const auto v : c.pending_restart) c.be->crash(v);
  std::int64_t checker_ns = 0;
  if (!legalize(*c.be, kSetupRoundBudget, log, kSetupOp, checker_ns)) {
    error = "set-up overlay not legal within the round budget";
    return std::nullopt;
  }
  phase_result warm;
  for (std::size_t i = 0; i < kWarmupEpochs; ++i) {
    churn_epoch(c, in, nullptr, kSetupOp, warm);
  }
  if (warm.failed != 0) {
    error = "warm-up epoch failed: " + warm.errors.front();
    return std::nullopt;
  }
  c.setup_s = seconds_since(t0);
  return c;
}

/// Continue `ph`'s closed loop of epochs, as publish_ops does.
void churn_ops(churn_overlay& c, const churn_inputs& in, double seconds,
               std::size_t min_ops, span_log* log, phase_result& ph) {
  const auto start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t n = ph.ops.size(); n < min_ops || now_ns() < deadline;
       ++n) {
    churn_epoch(c, in, log, n + 1, ph);
  }
  ph.wall_s += seconds_since(start);
}

/// A traced run times its untraced and traced halves in alternating
/// slices of this length, so slow drifts of the machine hit both alike.
constexpr double kSlice = 0.25;

/// Alternate `run(false, untraced)` and `run(true, traced)` slices until
/// `seconds` passed and both phases hold at least `min_ops` ops.
template <typename RunSlice>
void alternate_slices(double seconds, std::size_t min_ops,
                      phase_result& untraced, phase_result& traced,
                      RunSlice&& run) {
  const auto deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline || untraced.ops.size() < min_ops ||
         traced.ops.size() < min_ops) {
    run(false, untraced);
    run(true, traced);
  }
}

// ---------------------------------------------------------- reporting

/// `r`, marked failed for `why`.
run_report failed(run_report r, std::string why) {
  r.correct = false;
  r.errors.push_back(std::move(why));
  return r;
}

void add(run_report& r, std::string name, double value, std::string unit,
         std::string note = {}, bool in_result = true) {
  r.metrics.push_back(
      {std::move(name), value, std::move(unit), std::move(note), in_result});
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

void merge_errors(run_report& r, const phase_result& ph) {
  r.attempted += ph.latency_us.size();
  r.failed += ph.failed;
  for (const auto& e : ph.errors) r.errors.push_back(e);
  if (ph.failed != 0) r.correct = false;
}

/// The end-to-end metrics of an untraced run, pooled over its parts.
void report_end_to_end(run_report& r, const std::vector<double>& setups,
                       const std::vector<phase_result>& parts,
                       std::size_t window) {
  phase_result ph;
  for (const auto& part : parts) {
    merge_errors(r, part);
    ph.latency_us.insert(ph.latency_us.end(), part.latency_us.begin(),
                         part.latency_us.end());
    ph.wall_s += part.wall_s;
    ph.failed += part.failed;
  }
  std::string setup_note = "median of";
  for (const auto s : setups) setup_note += fmt(" %.3f", s);
  add(r, "setup_s", median(setups), "s", setup_note);
  add(r, "ops_per_s", ph.ops_per_s(), "1/s",
      std::to_string(ph.latency_us.size()) + " ops in " +
          fmt("%.2f s", ph.wall_s));
  for (const auto& [name, q] :
       {std::pair{"op_p50_us", 0.5}, std::pair{"op_p90_us", 0.9}}) {
    auto samples = ph.latency_us;
    const auto p = exact_percentile(samples, q);
    if (!p.reported) {
      r.correct = false;
      r.errors.push_back(std::string(name) + ": fewer than 10 samples beyond");
    }
    add(r, name, p.value, "us",
        "n=" + std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
            " beyond");
  }
  const auto [msgs, n] = window_mean(pointers(parts), window, &op_record::msgs);
  add(r, "msgs_per_op", msgs, "msgs",
      "first " + std::to_string(window) + " ops of each part, " +
          std::to_string(n) + " ops");
  add(r, "peak_rss_mb", peak_rss_mib(), "MiB");
  add(r, "fail_share",
      ph.latency_us.empty() ? 0.0
                            : static_cast<double>(ph.failed) /
                                  static_cast<double>(ph.latency_us.size()),
      "ratio", std::to_string(ph.failed) + " of " +
                   std::to_string(ph.latency_us.size()) + " ops failed",
      false);
}

/// Collects per-layer values, then emits all of kPerLayer in order.
class layer_report {
 public:
  void set(const std::string& name, double value, std::string note = {}) {
    values_[name] = {value, std::move(note)};
  }
  /// Mean self time per call of a span name, in µs (0 when never called).
  void set_span(const std::string& metric, const std::vector<layer_time>& lt,
                layer l) {
    const auto& t = lt[l];
    if (t.calls == 0) return;
    set(metric, t.self_ns / static_cast<double>(t.calls) / 1e3,
        std::to_string(t.calls) + " calls, self time");
  }
  /// Take every metric of `probe` this report lacks.
  void fill_from(const layer_report& probe) {
    for (const auto& [name, v] : probe.values_) {
      if (values_.count(name) == 0) values_[name] = {v.first, "probe: " + v.second};
    }
  }
  void emit(run_report& r, const std::string& workload) const {
    for (const auto& m : kPerLayer) {
      const auto it = values_.find(m.name);
      if (it == values_.end()) {
        add(r, m.name, 0.0, m.unit, "not exercised by " + workload);
      } else {
        add(r, m.name, it->second.first, m.unit, it->second.second);
      }
    }
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Layer metrics every in-process workload shares: spans of the timed
/// phase, counter deltas, and the overlay's shape.
/// Layers called in set-up as well as in ops (subscribe, checker,
/// rounds): their metrics cover every call in both logs.
void setup_layers(layer_report& lr, const span_log& setup_log,
                  const span_log* log) {
  auto lt = layer_times(setup_log);
  if (log != nullptr) {
    const auto ops = layer_times(*log);
    for (std::size_t i = 0; i < lt.size(); ++i) {
      lt[i].calls += ops[i].calls;
      lt[i].count += ops[i].count;
      lt[i].self_ns += ops[i].self_ns;
      lt[i].total_ns += ops[i].total_ns;
    }
  }
  lr.set_span("engine.subscribe_us", lt, kSubscribe);
  if (lt[kSubscribe].calls != 0) {
    lr.set("engine.subscribe_msgs",
           per(static_cast<double>(lt[kSubscribe].count),
               static_cast<double>(lt[kSubscribe].calls)),
           "messages sent while subscribe ran, per call");
  }
  lr.set_span("drtree.checker_us", lt, kChecker);
  lr.set_span("drtree.round_us", lt, kRound);
}

void in_process_layers(layer_report& lr, const span_log& setup_log,
                       const span_log& log, const phase_result& ph,
                       sharded& be) {
  setup_layers(lr, setup_log, &log);
  const auto lt = layer_times(log);
  lr.set_span("engine.unsubscribe_us", lt, kUnsubscribe);
  lr.set_span("engine.crash_us", lt, kCrash);
  lr.set_span("engine.restart_us", lt, kRestart);
  lr.set_span("drtree.publish_begin_us", lt, kPublishBegin);
  lr.set_span("sim.drain_us", lt, kDrain);
  lr.set_span("drtree.publish_finish_us", lt, kPublishFinish);
  lr.set_span("rtree.point_query_us", lt, kPointQuery);
  const double ops = static_cast<double>(ph.latency_us.size());
  lr.set("engine.op_self_us", per(lt[kOp].self_ns / 1e3, ops),
         "op span time outside every named child span");

  const auto& a = ph.before;
  const auto& b = ph.after;
  const double steps = static_cast<double>(b.steps - a.steps);
  const double visited = static_cast<double>(b.visited - a.visited);
  lr.set("sim.steps_per_op", per(steps, ops));
  lr.set("sim.timers_per_op", per(static_cast<double>(b.timers - a.timers), ops));
  lr.set("drtree.passes_per_op", per(visited, ops));
  lr.set("sim.dead_msgs_per_op", per(static_cast<double>(b.dead - a.dead), ops));
  lr.set("drtree.repairs_per_op",
         per(static_cast<double>(b.repairs - a.repairs), ops));
  // Handler steps run inside the spans that drain the simulator.
  const double drain_ns = lt[kDrain].self_ns + lt[kRound].self_ns +
                          lt[kSubscribe].self_ns + lt[kUnsubscribe].self_ns;
  lr.set("sim.ns_per_step", per(drain_ns, steps),
         "self time of draining spans / handler steps");
  const double windows =
      static_cast<double>(b.kernel.windows - a.kernel.windows);
  lr.set("sim.windows_per_op", per(windows, ops));
  lr.set("sim.barriers_per_op",
         per(static_cast<double>(b.kernel.barriers - a.kernel.barriers), ops));
  lr.set("sim.idle_window_share",
         per(static_cast<double>(b.kernel.shard_windows_idle -
                                 a.kernel.shard_windows_idle),
             windows * static_cast<double>(be.shards())),
         "idle shard windows / (windows x shards)");
  lr.set("sim.cross_msgs_per_op",
         per(static_cast<double>(b.kernel.cross_messages -
                                 a.kernel.cross_messages),
             ops));
  const auto arena = be.arena_stats();
  lr.set("drtree.arena_bytes_per_peer",
         per(static_cast<double>(arena.total_bytes()),
             static_cast<double>(be.population())));
  lr.set("drtree.height", static_cast<double>(be.shape().height));
}

/// What the publishes of a phase delivered: hops, deliveries, and the
/// share of deliveries that were false positives (wasted work).
void delivery_layers(layer_report& lr, const phase_result& ph) {
  const double ops = static_cast<double>(ph.ops.size());
  double delivered = 0;
  for (const auto& op : ph.ops) delivered += static_cast<double>(op.delivered);
  lr.set("drtree.hops_mean", per(static_cast<double>(ph.hops), ops));
  lr.set("drtree.deliveries_per_op", per(delivered, ops));
  lr.set("drtree.fp_share",
         per(static_cast<double>(ph.false_positives), delivered),
         "false positives / deliveries");
}

/// Compare per-op counts of the untraced and traced phases; a mismatch
/// means the traced path is not the path the untraced run measures.
void check_same_counts(run_report& r, const std::vector<op_record>& a,
                       const std::vector<op_record>& b, const char* what) {
  const auto n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) {
      r.correct = false;
      r.errors.push_back(std::string("traced ") + what + " " +
                         std::to_string(i + 1) +
                         " counts differ from the untraced run's");
      return;
    }
  }
  r.notes.push_back("traced per-op counts equal the untraced run's over " +
                    std::to_string(n) + " ops");
}

void report_overhead(run_report& r, layer_report& lr,
                     const phase_result& untraced,
                     const phase_result& traced) {
  for (const auto* ph : {&untraced, &traced}) {
    r.notes.push_back(std::string(ph == &untraced ? "untraced" : "traced") +
                      " half: " + std::to_string(ph->latency_us.size()) +
                      " ops, op_p50_us " + fmt("%.3f", p50_of(ph->latency_us)) +
                      ", ops_per_s " + fmt("%.3f", ph->ops_per_s()));
  }
  lr.set("trace.p50_overhead_us",
         p50_of(traced.latency_us) - p50_of(untraced.latency_us),
         "traced minus untraced op_p50_us");
  lr.set("trace.ops_per_s_overhead",
         traced.ops_per_s() - untraced.ops_per_s(),
         "traced minus untraced ops_per_s");
}

std::string trace_path(const run_options& o) {
  return o.trace_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
         ".trace.json";
}

void write_spans(run_report& r, const run_options& o,
                 const std::vector<const span_log*>& logs) {
  std::error_code ec;
  std::filesystem::create_directories(o.trace_dir, ec);
  const auto path = trace_path(o);
  std::size_t total = 0;
  for (const auto* l : logs) total += l->spans().size();
  if (!write_chrome_trace(path, logs, kTraceFileSpans)) {
    r.correct = false;
    r.errors.push_back("cannot write " + path);
    return;
  }
  r.notes.push_back("spans: " + path + " (" + std::to_string(total) +
                    " recorded, at most " + std::to_string(kTraceFileSpans) +
                    " per thread written)");
}

/// put_frame + try_decode of one publish request and its report, in ns.
double codec_ns_per_pair() {
  std::vector<std::byte> buf;
  rpc::publish_body req;
  rpc::report_body rep;
  std::uint64_t check = 0;
  const auto t0 = now_ns();
  for (std::size_t i = 0; i < kCodecPairs; ++i) {
    req.publisher = i;
    rep.delivered = i;
    buf.clear();
    rpc::put_frame(buf, rpc::frame_type::publish, static_cast<std::uint32_t>(i),
                   req);
    rpc::put_frame(buf, rpc::frame_type::publish_report,
                   static_cast<std::uint32_t>(i), rep);
    std::size_t off = 0;
    for (int f = 0; f < 2; ++f) {
      rpc::frame_view view;
      std::size_t used = 0;
      if (rpc::try_decode(buf.data() + off, buf.size() - off, view, used) !=
          rpc::decode_status::ok) {
        return 0.0;
      }
      off += used;
      rpc::publish_body got_req;
      rpc::report_body got_rep;
      check += f == 0 ? (view.read(got_req) ? got_req.publisher : 0)
                      : (view.read(got_rep) ? got_rep.delivered : 0);
    }
  }
  const auto t1 = now_ns();
  // i summed twice: a wrong decode cannot go unnoticed.
  if (check != kCodecPairs * (kCodecPairs - 1)) return 0.0;
  return static_cast<double>(t1 - t0) / static_cast<double>(kCodecPairs);
}

// ---------------------------------------------------------------- probes
// A traced run reports every layer.  Layers its own ops never call are
// measured after the timed phases by short probes, on the workload's own
// overlay where the layer is an overlay call, and on a small loopback
// service for the rpc layers; their notes say "probe".

/// Op id of probe spans.
constexpr std::uint64_t kProbeOp = ~std::uint64_t{0};
constexpr std::size_t kProbePublishes = 500;
constexpr std::size_t kProbeSubs = 100;
constexpr std::size_t kProbeRequests = 1000;
/// Membership calls per kind, as in a churn_repair epoch.
constexpr std::size_t kProbeMembers = kChurnPeers / 400;


/// Publishes through the traced split path, with their point queries.
void probe_publishes(sharded& be, std::uint64_t first_event_id,
                     std::uint64_t seed, span_log& log) {
  util::rng rng(derive(seed, kProbeStream));
  const auto live = be.active();
  std::vector<std::uint64_t> before;
  std::vector<spatial::peer_id> matches;
  for (std::size_t i = 0; i < kProbePublishes; ++i) {
    const auto pt = workload::make_event_point(workload::event_family::uniform,
                                               rng, workspace());
    traced_publish(be, first_event_id + i, live[rng.index(live.size())], pt,
                   log, kProbeOp, before);
    point_query(be, pt, log, kProbeOp, matches);
  }
}

/// One churn epoch's membership calls (k leaves, k crashes, restarts of
/// the crashed) and the rounds until legal.
void probe_membership(sharded& be, std::size_t k, std::uint64_t seed,
                      span_log& log) {
  util::rng rng(derive(seed, kProbeStream));
  std::vector<std::uint64_t> picks(2 * k);
  for (auto& p : picks) p = rng.next_u64();
  const auto victims = draw_victims(be.active(), picks.data(), 2 * k);
  for (std::size_t j = 0; j < victims.size(); ++j) {
    scoped_span s(&log, j < k ? kUnsubscribe : kCrash, kProbeOp);
    if (j < k) {
      be.unsubscribe(victims[j]);
    } else {
      be.crash(victims[j]);
    }
  }
  for (std::size_t j = k; j < victims.size(); ++j) {
    scoped_span s(&log, kRestart, kProbeOp);
    be.restart(victims[j]);
  }
  std::int64_t checker_ns = 0;
  legalize(be, kEpochRoundBudget, &log, kProbeOp, checker_ns);
}

/// Layer metrics of a probe log, for layer_report::fill_from.
void probe_layers(layer_report& probe, const span_log& log) {
  const auto lt = layer_times(log);
  probe.set_span("engine.unsubscribe_us", lt, kUnsubscribe);
  probe.set_span("engine.crash_us", lt, kCrash);
  probe.set_span("engine.restart_us", lt, kRestart);
  probe.set_span("drtree.round_us", lt, kRound);
  probe.set_span("drtree.publish_begin_us", lt, kPublishBegin);
  probe.set_span("sim.drain_us", lt, kDrain);
  probe.set_span("drtree.publish_finish_us", lt, kPublishFinish);
  probe.set_span("rtree.point_query_us", lt, kPointQuery);
  probe.set_span("drtree.inproc_publish_us", lt, kInprocPublish);
  if (lt[kOp].calls != 0) {
    probe.set("engine.op_self_us", lt[kOp].self_ns / 1e3 /
                                       static_cast<double>(lt[kOp].calls),
              "op span time outside every named child span");
  }
}

/// Probe the layers a workload's own ops never call; `lr` keeps what the
/// workload measured itself.
void fill_probed(layer_report& lr, layer_report& probe,
                 const span_log& probe_log) {
  probe_layers(probe, probe_log);
  lr.fill_from(probe);
}

/// The rpc layers without a workload service: a loopback service hosting
/// the first kProbeSubs filters over one connection, pinged, then sent
/// kProbeRequests publishes, which are then replayed on an identically
/// built in-process overlay.
void probe_rpc(const std::vector<spatial::box>& filters, std::uint64_t seed,
               span_log& log, layer_report& probe) {
  rpc::service_config sc;
  sc.backend = overlay_config(seed);
  rpc::service svc(sc);
  std::thread loop([&svc] { svc.run(); });
  rpc::client conn(svc.port());
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kProbeSubs && i < filters.size(); ++i) {
    ids.push_back(conn.subscribe(filters[i]));
  }
  std::vector<double> pings, rtts;
  for (std::size_t i = 0; i < kPings; ++i) {
    const auto t0 = now_ns();
    scoped_span s(&log, kRpcPing, kProbeOp);
    conn.ping();
    pings.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  util::rng rng(derive(seed, kProbeStream));
  std::vector<std::pair<std::size_t, spatial::pt>> requests;
  for (std::size_t i = 0; i < kProbeRequests; ++i) {
    requests.emplace_back(rng.index(ids.size()),
                          workload::make_event_point(
                              workload::event_family::matching, rng,
                              workspace(), filters));
  }
  const auto s0 = svc.stats_snapshot();
  for (const auto& [who, pt] : requests) {
    const auto t0 = now_ns();
    scoped_span s(&log, kRpcSolo, kProbeOp);
    conn.publish(ids[who], pt);
    conn.events().clear();
    rtts.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  const auto s1 = svc.stats_snapshot();
  svc.stop();
  loop.join();
  sharded replica(overlay_config(seed), 1, false);
  std::vector<sub_id> local;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    local.push_back(replica.subscribe(filters[i]));
  }
  for (const auto& [who, pt] : requests) {
    scoped_span s(&log, kInprocPublish, kProbeOp);
    replica.publish(local[who], pt);
  }
  const std::string where = std::to_string(ids.size()) + "-subscriber service";
  probe.set("rpc.ping_us", median(pings), "median of " +
                                              std::to_string(kPings) + ", " +
                                              where);
  probe.set("rpc.solo_rtt_us", p50_of(rtts),
            "p50 of " + std::to_string(rtts.size()) + " publishes, " + where);
  const double n = static_cast<double>(requests.size());
  probe.set("rpc.frames_per_op",
            per(static_cast<double>((s1.frames_in - s0.frames_in) +
                                    (s1.frames_out - s0.frames_out)),
                n),
            where);
  probe.set("rpc.pushes_per_op",
            per(static_cast<double>(s1.events_pushed - s0.events_pushed), n),
            where);
}

// ------------------------------------------------------ in-process runs

run_report run_publish(const run_options& o, std::size_t shards,
                       std::size_t part_count, std::size_t window) {
  run_report r;
  std::string error;
  if (!o.trace) {
    std::vector<double> setups;
    std::vector<phase_result> parts(part_count);
    for (std::size_t p = 0; p < part_count; ++p) {
      const auto seed = part_seed(o.seed, p);
      const auto in = make_publish_inputs(seed, kPublishPeers, kOpInputs);
      auto ov = build_publish_overlay(in, shards, seed, nullptr, error);
      if (!ov) return failed(std::move(r), error);
      setups.push_back(ov->setup_s);
      publish_ops(*ov, in, o.seconds / static_cast<double>(part_count),
                  part_min_ops(window, part_count), nullptr, parts[p]);
    }
    report_end_to_end(r, setups, parts, window);
    return r;
  }
  const auto seed = part_seed(o.seed, 0);
  const auto in = make_publish_inputs(seed, kPublishPeers, kOpInputs);
  const std::size_t min_ops = std::max(kMinOps, window);
  // Traced run: the same ops on two identically built overlays, one
  // untraced and one traced; their per-op counts must agree.
  auto setup_log = make_log();
  auto log = make_log();
  auto plain = build_publish_overlay(in, shards, seed, nullptr, error);
  auto ov = plain ? build_publish_overlay(in, shards, seed, &setup_log, error)
                  : std::nullopt;
  if (!ov) return failed(std::move(r), error);
  phase_result untraced, traced;
  traced.before = read_totals(*ov->be);
  alternate_slices(o.seconds, min_ops, untraced, traced,
                   [&](bool tr, phase_result& ph) {
                     publish_ops(tr ? *ov : *plain, in, kSlice, 0,
                                 tr ? &log : nullptr, ph);
                   });
  traced.after = read_totals(*ov->be);
  merge_errors(r, untraced);
  merge_errors(r, traced);
  check_same_counts(r, untraced.ops, traced.ops, "publish");

  layer_report lr;
  in_process_layers(lr, setup_log, log, traced, *ov->be);
  delivery_layers(lr, traced);
  report_overhead(r, lr, untraced, traced);
  lr.set("rpc.codec_ns", codec_ns_per_pair(),
         "mean over " + std::to_string(kCodecPairs) + " request/report pairs");
  layer_report probe;
  auto probe_log = make_log();
  probe_membership(*ov->be, kProbeMembers, seed, probe_log);
  probe_rpc(in.filters, seed, probe_log, probe);
  fill_probed(lr, probe, probe_log);
  lr.emit(r, o.workload);
  write_spans(r, o, {&setup_log, &log, &probe_log});
  return r;
}

run_report run_churn(const run_options& o) {
  run_report r;
  std::string error;
  const auto rounds_metric = [&](const std::vector<const phase_result*>& ph) {
    const auto [rounds, n] = window_mean(ph, kChurnWindow, &op_record::rounds);
    return std::make_pair(rounds, "first " + std::to_string(kChurnWindow) +
                                      " epochs of each part, " +
                                      std::to_string(n) + " epochs");
  };
  if (!o.trace) {
    std::vector<double> setups;
    std::vector<phase_result> parts(kChurnParts);
    for (std::size_t p = 0; p < kChurnParts; ++p) {
      const auto seed = part_seed(o.seed, p);
      const auto in = make_churn_inputs(seed, kChurnPeers, kEpochInputs);
      auto c = build_churn_overlay(in, seed, nullptr, error);
      if (!c) return failed(std::move(r), error);
      setups.push_back(c->setup_s);
      churn_ops(*c, in, o.seconds / kChurnParts,
                part_min_ops(kChurnWindow, kChurnParts), nullptr, parts[p]);
    }
    report_end_to_end(r, setups, parts, kChurnWindow);
    const auto [rounds, note] = rounds_metric(pointers(parts));
    add(r, "rounds_per_op", rounds, "rounds", note, false);
    return r;
  }
  const auto seed = part_seed(o.seed, 0);
  const auto in = make_churn_inputs(seed, kChurnPeers, kEpochInputs);
  const std::size_t min_ops = std::max(kMinOps, kChurnWindow);
  auto setup_log = make_log();
  auto log = make_log();
  auto plain = build_churn_overlay(in, seed, nullptr, error);
  auto c = plain ? build_churn_overlay(in, seed, &setup_log, error)
                 : std::nullopt;
  if (!c) return failed(std::move(r), error);
  phase_result untraced, traced;
  traced.before = read_totals(*c->be);
  alternate_slices(o.seconds, min_ops, untraced, traced,
                   [&](bool tr, phase_result& ph) {
                     churn_ops(tr ? *c : *plain, in, kSlice, 0,
                               tr ? &log : nullptr, ph);
                   });
  traced.after = read_totals(*c->be);
  merge_errors(r, untraced);
  merge_errors(r, traced);
  check_same_counts(r, untraced.ops, traced.ops, "epoch");

  layer_report lr;
  in_process_layers(lr, setup_log, log, traced, *c->be);
  const auto lt = layer_times(log);
  const double rounds = static_cast<double>(lt[kRound].calls);
  lr.set("drtree.passes_per_round",
         per(static_cast<double>(traced.after.visited - traced.before.visited),
             rounds),
         "stabilize passes / step_round calls");
  const auto [rounds_per_op, note] = rounds_metric({&traced});
  lr.set("drtree.rounds_per_op", rounds_per_op, note);
  report_overhead(r, lr, untraced, traced);
  lr.set("rpc.codec_ns", codec_ns_per_pair(),
         "mean over " + std::to_string(kCodecPairs) + " request/report pairs");
  layer_report probe;
  auto probe_log = make_log();
  // The churn backend never published, so its event ids start at 1.
  probe_publishes(*c->be, 1, seed, probe_log);
  probe_rpc(in.initial, seed, probe_log, probe);
  fill_probed(lr, probe, probe_log);
  lr.emit(r, o.workload);
  write_spans(r, o, {&setup_log, &log, &probe_log});
  return r;
}

// --------------------------------------------------------- drtd_service

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_self(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// The daemon loop's CPU and one per client thread, distinct when the
/// process may use that many; -1 (no pinning) otherwise.
struct cpu_plan {
  int loop = -1;
  std::array<int, kDrtdConns> clients{-1, -1};
};

cpu_plan plan_cpus() {
  cpu_plan p;
  const auto cpus = allowed_cpus();
  if (cpus.size() < 1 + kDrtdConns) return p;
  p.loop = cpus[cpus.size() - 1];
  for (std::size_t c = 0; c < kDrtdConns; ++c) p.clients[c] = cpus[cpus.size() - 2 - c];
  return p;
}

/// Spins a lowest-priority (SCHED_IDLE) thread on each of the given CPUs
/// while it lives, so a pinned CPU whose thread blocks stays busy instead
/// of halting.  On a virtual machine a halted vCPU is woken through the
/// host's scheduler, and under host contention that wake-up, not the
/// program, dominates a loopback round trip; any runnable thread
/// preempts the spinner at once.
class cpu_keepalive {
 public:
  explicit cpu_keepalive(const std::vector<int>& cpus) {
    for (const int cpu : cpus) {
      spinners_.emplace_back([this, cpu] {
        pin_self(cpu);
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~cpu_keepalive() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : spinners_) t.join();
  }
  cpu_keepalive(const cpu_keepalive&) = delete;
  cpu_keepalive& operator=(const cpu_keepalive&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;  // last: joined before stop_ goes
};

/// One served overlay: an in-process rpc::service on loopback, its loop
/// thread, and the two client connections that own the subscriptions.
class drtd_instance {
 public:
  drtd_instance() = default;
  drtd_instance(const drtd_instance&) = delete;
  drtd_instance& operator=(const drtd_instance&) = delete;
  ~drtd_instance() { stop(); }

  bool start(const drtd_inputs& in, std::uint64_t seed, const cpu_plan& cpus,
             std::string& error);
  void stop() {
    if (svc_) svc_->stop();
    if (loop_.joinable()) loop_.join();
  }

  rpc::service& svc() { return *svc_; }
  rpc::client& conn(std::size_t c) { return conns_[c]; }
  const std::vector<std::uint64_t>& subs(std::size_t c) const {
    return subs_[c];
  }
  std::size_t warm_publishes() const { return warm_publishes_; }
  double setup_s() const { return setup_s_; }

 private:
  std::unique_ptr<rpc::service> svc_;
  std::array<rpc::client, kDrtdConns> conns_;
  std::array<std::vector<std::uint64_t>, kDrtdConns> subs_;
  std::size_t warm_publishes_ = 0;
  double setup_s_ = 0.0;
  std::thread loop_;  // last: joined before the members it uses go
};

bool drtd_instance::start(const drtd_inputs& in, std::uint64_t seed,
                          const cpu_plan& cpus, std::string& error) {
  const auto t0 = now_ns();
  rpc::service_config sc;
  sc.backend = overlay_config(seed);
  sc.stabilize_every_ms = 0;  // only client requests drive the overlay
  svc_ = std::make_unique<rpc::service>(sc);
  loop_ = std::thread([svc = svc_.get(), cpu = cpus.loop] {
    pin_self(cpu);
    svc->run();
  });
  for (auto& c : conns_) {
    if (!c.connect(svc_->port())) {
      error = "cannot connect to the service";
      return false;
    }
  }
  // Fixed order: subscription i over connection i % 2, one at a time.
  for (std::size_t i = 0; i < in.filters.size(); ++i) {
    const auto id = conns_[i % kDrtdConns].subscribe(in.filters[i]);
    if (id == engine::kNoSub) {
      error = "subscribe " + std::to_string(i) + " failed";
      return false;
    }
    subs_[i % kDrtdConns].push_back(id);
  }
  // Warm up on connection 0 until STAT reports the overlay legal: every
  // drain advances virtual time, so publishes are what run the
  // stabilizer here.  STAT runs a checker pass, so it is asked once per
  // chunk; connection 1 pings to drain the pushes it was sent.
  for (std::size_t chunk = 0; chunk < kDrtdWarmChunks; ++chunk) {
    if (conns_[0].stat().legal != 0) {
      setup_s_ = seconds_since(t0);
      return true;
    }
    for (std::size_t j = 0; j < kDrtdWarmChunk; ++j) {
      const auto i = warm_publishes_++;
      const auto pub = subs_[0][in.warm_picks[i] % subs_[0].size()];
      // False negatives are expected until the overlay is legal.
      if (conns_[0].publish(pub, in.warm_points[i]).ok == 0) {
        error = "warm-up publish " + std::to_string(i) + " not ok";
        return false;
      }
      conns_[0].events().clear();
    }
    if (!conns_[1].ping()) {
      error = "connection 1 lost during warm-up";
      return false;
    }
    conns_[1].events().clear();
  }
  error = "served overlay not legal after warm-up";
  return false;
}

/// The requests of a closed-loop publish phase over the service, one
/// thread per connection.  Requests are indexed per connection, so two
/// phases issue the same sequences.
struct drtd_phase {
  std::array<phase_result, kDrtdConns> conn;
  double wall_s = 0.0;

  /// The phase as one flat result (for the shared reporting code).
  phase_result flat() const {
    phase_result all;
    all.wall_s = wall_s;
    for (const auto& c : conn) {
      all.latency_us.insert(all.latency_us.end(), c.latency_us.begin(),
                            c.latency_us.end());
      all.ops.insert(all.ops.end(), c.ops.begin(), c.ops.end());
      all.failed += c.failed;
      all.hops += c.hops;
      all.false_positives += c.false_positives;
      all.errors.insert(all.errors.end(), c.errors.begin(), c.errors.end());
    }
    return all;
  }
};

/// Continue `ph` on the first `threads` connections: each thread sends
/// kDrtdThreadWarmup untimed requests (from the end of its request list),
/// then all start together and send one request at a time until
/// `seconds` passed and the connection's phase holds `min_ops`.
void drtd_slice(drtd_instance& inst, const drtd_inputs& in,
                const cpu_plan& cpus, std::size_t threads, double seconds,
                std::size_t min_ops, std::array<span_log, kDrtdConns>* logs,
                layer span_name, drtd_phase& ph) {
  std::barrier start_line(static_cast<std::ptrdiff_t>(threads));
  std::array<std::int64_t, kDrtdConns> starts{};
  std::array<std::int64_t, kDrtdConns> ends{};
  const auto body = [&](std::size_t c) {
    pin_self(cpus.clients[c]);
    auto& conn = inst.conn(c);
    auto& res = ph.conn[c];
    span_log* log = logs != nullptr ? &(*logs)[c] : nullptr;
    const auto& subs = inst.subs(c);
    const auto request = [&](std::size_t i) {
      const auto idx = i % kDrtdRequests;
      auto rep = conn.publish(subs[in.picks[c][idx] % subs.size()],
                              in.points[c][idx]);
      conn.events().clear();  // pushes are counted by the service
      return rep;
    };
    for (std::size_t i = 0; i < kDrtdThreadWarmup; ++i) {
      request(kDrtdRequests - 1 - i);
    }
    start_line.arrive_and_wait();
    const auto start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t t1 = start;
    for (std::size_t n = res.ops.size(); n < min_ops || t1 < deadline; ++n) {
      const auto t0 = now_ns();
      rpc::report_body rep;
      {
        scoped_span s(log, span_name, n + 1);
        rep = request(n);
      }
      t1 = now_ns();
      res.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      res.ops.push_back({rep.messages, rep.delivered, rep.false_negatives, 0});
      res.hops += rep.max_hops;
      res.false_positives += rep.false_positives;
      if (rep.ok == 0) {
        res.fail("connection " + std::to_string(c) + " request " +
                 std::to_string(n + 1) + ": not ok");
      } else if (rep.false_negatives != 0) {
        res.fail("connection " + std::to_string(c) + " request " +
                 std::to_string(n + 1) + ": " +
                 std::to_string(rep.false_negatives) + " false negatives");
      }
    }
    starts[c] = start;
    ends[c] = t1;
  };
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < threads; ++c) workers.emplace_back(body, c);
  for (auto& w : workers) w.join();
  const auto n = static_cast<std::ptrdiff_t>(threads);
  const auto first = *std::min_element(starts.begin(), starts.begin() + n);
  const auto last = *std::max_element(ends.begin(), ends.begin() + n);
  ph.wall_s += static_cast<double>(last - first) / 1e9;
}

run_report run_drtd(const run_options& o) {
  run_report r;
  const auto cpus = plan_cpus();
  pin_self(cpus.clients[0]);  // set-up RPCs run from this thread
  r.notes.push_back(cpus.loop < 0
                        ? std::string("cpu pinning: off (fewer than 3 CPUs)")
                        : "cpu pinning: loop on " + std::to_string(cpus.loop) +
                              ", clients on " + std::to_string(cpus.clients[0]) +
                              " and " + std::to_string(cpus.clients[1]));
  std::string error;
  std::vector<int> pinned;
  if (cpus.loop >= 0) {
    pinned.push_back(cpus.loop);
    pinned.insert(pinned.end(), cpus.clients.begin(), cpus.clients.end());
  }
  std::optional<cpu_keepalive> keepalive;
  keepalive.emplace(pinned);
  const auto warm_note = [&](const drtd_instance& inst) {
    r.notes.push_back("warm-up: " + std::to_string(inst.warm_publishes()) +
                      " publishes until STAT reported legal");
  };
  if (!o.trace) {
    std::vector<double> setups;
    std::vector<phase_result> parts;
    for (std::size_t p = 0; p < kDrtdParts; ++p) {
      const auto in = make_drtd_inputs(part_seed(o.seed, p));
      drtd_instance inst;
      if (!inst.start(in, part_seed(o.seed, p), cpus, error)) {
        return failed(std::move(r), error);
      }
      setups.push_back(inst.setup_s());
      warm_note(inst);
      drtd_phase ph;
      drtd_slice(inst, in, cpus, kDrtdConns, o.seconds / kDrtdParts,
                 part_min_ops(0, kDrtdParts), nullptr, kRpcPublish, ph);
      parts.push_back(ph.flat());
    }
    // Every request's messages count: they are not deterministic here
    // (two connections interleave with stabilizer passes), so a window
    // would not make them repeat.
    report_end_to_end(r, setups, parts, kDrtdRequests);
    return r;
  }

  const auto seed = part_seed(o.seed, 0);
  const auto in = make_drtd_inputs(seed);
  auto inst = std::make_unique<drtd_instance>();
  if (!inst->start(in, seed, cpus, error)) return failed(std::move(r), error);
  warm_note(*inst);

  // Traced run: untraced and traced two-connection slices alternate on
  // the same service, then one connection runs alone, then pings, the
  // codec, and an in-process replay of the traced requests.
  std::array<span_log, kDrtdConns> logs{make_log(), make_log()};
  drtd_phase untraced, traced, solo;
  std::uint64_t frames = 0, pushed = 0;
  const auto short_of_min = [](const drtd_phase& ph) {
    for (const auto& c : ph.conn) {
      if (c.ops.size() < kMinOps) return true;
    }
    return false;
  };
  const auto deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 0.6 * 1e9);
  while (now_ns() < deadline || short_of_min(untraced) ||
         short_of_min(traced)) {
    drtd_slice(*inst, in, cpus, kDrtdConns, kSlice, 0, nullptr, kRpcPublish,
               untraced);
    const auto s0 = inst->svc().stats_snapshot();
    drtd_slice(*inst, in, cpus, kDrtdConns, kSlice, 0, &logs, kRpcPublish,
               traced);
    const auto s1 = inst->svc().stats_snapshot();
    frames += (s1.frames_in - s0.frames_in) + (s1.frames_out - s0.frames_out);
    pushed += s1.events_pushed - s0.events_pushed;
  }
  drtd_slice(*inst, in, cpus, 1, o.seconds * 0.15, kMinOps, &logs, kRpcSolo,
             solo);
  for (const auto* ph : {&untraced, &traced, &solo}) merge_errors(r, ph->flat());
  for (std::size_t c = 0; c < kDrtdConns; ++c) {
    // Messages are left out: stabilizer passes interleave with two
    // connections, so a request's message count is not deterministic.
    auto strip = [](std::vector<op_record> v) {
      for (auto& op : v) op.msgs = 0;
      return v;
    };
    check_same_counts(r, strip(untraced.conn[c].ops), strip(traced.conn[c].ops),
                      ("request on connection " + std::to_string(c)).c_str());
  }
  std::vector<double> pings;
  for (std::size_t i = 0; i < kPings; ++i) {
    const auto t0 = now_ns();
    bool ok = false;
    {
      scoped_span s(&logs[0], kRpcPing, 0);
      ok = inst->conn(0).ping();
    }
    pings.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (!ok) return failed(std::move(r), "ping failed");
  }
  // The rest runs in this process alone, without the spinners.
  inst->stop();
  keepalive.reset();

  layer_report lr;
  const auto traced_all = traced.flat();
  const double ops = static_cast<double>(traced_all.ops.size());
  lr.set("rpc.ping_us", median(pings), "median of " + std::to_string(kPings));
  const auto solo_all = solo.flat();
  lr.set("rpc.solo_rtt_us", p50_of(solo_all.latency_us),
         "p50 of " + std::to_string(solo_all.latency_us.size()) +
             " publishes, one connection active");
  lr.set("rpc.codec_ns", codec_ns_per_pair(),
         "mean over " + std::to_string(kCodecPairs) + " request/report pairs");
  lr.set("rpc.frames_per_op", per(static_cast<double>(frames), ops),
         "frames in + out / publishes, traced slices");
  lr.set("rpc.pushes_per_op", per(static_cast<double>(pushed), ops),
         "event pushes / publishes, traced slices");
  delivery_layers(lr, traced_all);
  report_overhead(r, lr, untraced.flat(), traced_all);

  // In-process replica: the same subscriptions and warm-up publishes in
  // the same order give the served overlay's state; then the traced
  // requests are replayed alternately by connection.
  auto setup_log = make_log();
  auto replay_log = make_log();
  sharded replica(overlay_config(seed), 1, false);
  std::array<std::vector<sub_id>, kDrtdConns> ids;
  for (std::size_t i = 0; i < in.filters.size(); ++i) {
    ids[i % kDrtdConns].push_back(subscribe(replica, in.filters[i], &setup_log,
                                            kSetupOp));
  }
  for (std::size_t i = 0; i < inst->warm_publishes(); ++i) {
    replica.publish(ids[0][in.warm_picks[i] % ids[0].size()], in.warm_points[i]);
  }
  std::int64_t checker_ns = 0;
  if (!legalize(replica, 0, &setup_log, kSetupOp, checker_ns)) {
    r.notes.push_back("in-process replica not legal after the same warm-up");
  }
  phase_result replay;
  replay.before = read_totals(replica);
  const auto replay_start = now_ns();
  std::size_t replayed = 0;
  for (std::size_t n = 0; replayed < kInprocReplayCap; ++n) {
    bool any = false;
    for (std::size_t c = 0; c < kDrtdConns; ++c) {
      if (n >= traced.conn[c].ops.size()) continue;
      any = true;
      const auto idx = n % kDrtdRequests;
      scoped_span s(&replay_log, kInprocPublish, ++replayed);
      replica.publish(ids[c][in.picks[c][idx] % ids[c].size()],
                      in.points[c][idx]);
    }
    if (!any) break;
  }
  replay.wall_s = seconds_since(replay_start);
  replay.after = read_totals(replica);
  replay.latency_us.resize(replayed);
  const auto replay_lt = layer_times(replay_log);
  lr.set_span("drtree.inproc_publish_us", replay_lt, kInprocPublish);
  const double rn = static_cast<double>(replayed);
  lr.set("sim.steps_per_op",
         per(static_cast<double>(replay.after.steps - replay.before.steps), rn),
         "in-process replay");
  lr.set("sim.ns_per_step",
         per(replay_lt[kInprocPublish].self_ns,
             static_cast<double>(replay.after.steps - replay.before.steps)),
         "in-process replay: publish time / handler steps");
  lr.set("sim.timers_per_op",
         per(static_cast<double>(replay.after.timers - replay.before.timers), rn),
         "in-process replay");
  lr.set("drtree.passes_per_op",
         per(static_cast<double>(replay.after.visited - replay.before.visited),
             rn),
         "in-process replay");
  setup_layers(lr, setup_log, nullptr);
  const auto arena = replica.arena_stats();
  lr.set("drtree.arena_bytes_per_peer",
         per(static_cast<double>(arena.total_bytes()),
             static_cast<double>(replica.population())),
         "in-process replica");
  lr.set("drtree.height", static_cast<double>(replica.shape().height),
         "in-process replica");
  // The replica published through backend::publish, whose event ids ran
  // from 1 through its warm-up and replay.
  layer_report probe;
  auto probe_log = make_log();
  probe_publishes(replica, 1 + inst->warm_publishes() + replayed, seed,
                  probe_log);
  probe_membership(replica, kProbeMembers, seed, probe_log);
  fill_probed(lr, probe, probe_log);
  lr.emit(r, o.workload);
  write_spans(r, o,
              {&logs[0], &logs[1], &setup_log, &replay_log, &probe_log});
  return r;
}

}  // namespace

// ------------------------------------------------------------- public

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "publish", "churn_repair", "sharded_publish", "drtd_service"};
  return names;
}

run_report run_workload(const run_options& o) {
  if (o.workload == "publish") {
    return run_publish(o, 1, kPublishParts, kPublishWindow);
  }
  if (o.workload == "sharded_publish") {
    return run_publish(o, kShardedShards, kShardedParts, kShardedWindow);
  }
  if (o.workload == "churn_repair") return run_churn(o);
  if (o.workload == "drtd_service") return run_drtd(o);
  return failed({}, "unknown workload " + o.workload);
}

std::vector<spatial::box> publish_filters(std::uint64_t seed,
                                          std::size_t peers) {
  return make_filters(seed, peers);
}

std::vector<op_record> publish_counts(std::uint64_t seed, std::size_t peers,
                                      std::size_t shards, std::size_t ops,
                                      bool traced) {
  const auto in = make_publish_inputs(seed, peers, kWarmupPublishes + ops);
  std::string error;
  auto ov = build_publish_overlay(in, shards, seed, nullptr, error);
  if (!ov) return {};
  auto log = make_log();
  phase_result ph;
  publish_ops(*ov, in, 0.0, ops, traced ? &log : nullptr, ph);
  return ph.ops;
}

std::vector<op_record> churn_counts(std::uint64_t seed, std::size_t peers,
                                    std::size_t epochs, bool traced) {
  const auto in = make_churn_inputs(seed, peers, kWarmupEpochs + epochs);
  std::string error;
  auto c = build_churn_overlay(in, seed, nullptr, error);
  if (!c) return {};
  auto log = make_log();
  phase_result ph;
  churn_ops(*c, in, 0.0, epochs, traced ? &log : nullptr, ph);
  return ph.ops;
}

}  // namespace perfbench
