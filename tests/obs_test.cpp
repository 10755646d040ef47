// Observability-layer tests (DESIGN.md §12): trace-ring wraparound and
// allocation behavior, merge determinism, Chrome trace-event export,
// histogram/registry math, Prometheus exposition round-trips, and the
// automatic flight dumps (first false negative, first checker violation).
//
// The load-bearing invariant pinned here: instrumentation never perturbs
// the protocol.  The same scenario runs with trace off/ring/full and must
// produce bit-identical recorder digests, and two runs with the same seed
// must produce byte-identical trace streams.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "drtree/checker.h"
#include "drtree/corruptor.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include "alloc_counter.h"

namespace drt::obs {
namespace {

// ------------------------------------------------------------- fixtures

/// Points $DRT_DUMP_DIR at a fresh temp directory for the test's scope
/// and restores the previous value on destruction.
class scoped_dump_dir {
 public:
  scoped_dump_dir() {
    char tmpl[] = "/tmp/drt_obs_test_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    dir_ = made != nullptr ? made : "/tmp";
    const char* prev = std::getenv("DRT_DUMP_DIR");
    if (prev != nullptr) saved_ = prev;
    had_prev_ = prev != nullptr;
    ::setenv("DRT_DUMP_DIR", dir_.c_str(), 1);
  }

  ~scoped_dump_dir() {
    if (had_prev_) {
      ::setenv("DRT_DUMP_DIR", saved_.c_str(), 1);
    } else {
      ::unsetenv("DRT_DUMP_DIR");
    }
    // Best-effort cleanup; leftover temp files are harmless.
    for (const auto& f : list()) std::remove((dir_ + "/" + f).c_str());
    ::rmdir(dir_.c_str());
  }

  const std::string& dir() const { return dir_; }

  std::vector<std::string> list(const std::string& prefix = "") const {
    std::vector<std::string> out;
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) return out;
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
    }
    ::closedir(d);
    return out;
  }

 private:
  std::string dir_;
  std::string saved_;
  bool had_prev_ = false;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool records_equal(const std::vector<trace_record>& a,
                   const std::vector<trace_record>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(trace_record)) == 0;
}

// The bench_trace_overhead scenario in miniature: enough protocol life
// (joins, repairs, publishes, churn, crashes) to exercise every emit site.
engine::scenario small_scenario() {
  return engine::scenario::make("obs_test")
      .seed(99)
      .populate(64)
      .converge()
      .publish_sweep(128, workload::event_family::uniform)
      .churn_wave(16)
      .converge()
      .crash_burst(0.05)
      .converge()
      .build();
}

// --------------------------------------------------------------- ring

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  trace_ring a(trace_mode::ring, 20);
  EXPECT_EQ(a.capacity(), 32u);
  trace_ring b(trace_mode::ring, 1);
  EXPECT_EQ(b.capacity(), 16u);  // floor
  trace_ring c(trace_mode::ring, 64);
  EXPECT_EQ(c.capacity(), 64u);  // exact powers stay put
}

TEST(TraceRing, WraparoundKeepsNewestOldestFirst) {
  trace_ring r(trace_mode::ring, 16);
  for (std::uint32_t i = 0; i < 40; ++i) {
    r.emit(static_cast<double>(i), trace_kind::publish, i, i * 2, i * 3);
  }
  EXPECT_EQ(r.emitted(), 40u);
  EXPECT_EQ(r.size(), 16u);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 16u);
  // Records 0..23 were overwritten; 24..39 survive in emit order.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].peer, 24u + i);
    EXPECT_EQ(snap[i].a, (24u + i) * 2);
  }
}

TEST(TraceRing, TailReturnsNewestOldestFirst) {
  trace_ring r(trace_mode::ring, 16);
  for (std::uint32_t i = 0; i < 10; ++i) {
    r.emit(static_cast<double>(i), trace_kind::join, i);
  }
  const auto t = r.tail(4);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.front().peer, 6u);
  EXPECT_EQ(t.back().peer, 9u);
  // Asking for more than held returns everything.
  EXPECT_EQ(r.tail(100).size(), 10u);
}

TEST(TraceRing, FullModeGrowsWithoutBound) {
  trace_ring r(trace_mode::full);
  for (std::uint32_t i = 0; i < 100; ++i) {
    r.emit(static_cast<double>(i), trace_kind::delivery, i);
  }
  EXPECT_EQ(r.size(), 100u);
  EXPECT_EQ(r.emitted(), 100u);
  EXPECT_EQ(r.capacity(), SIZE_MAX);
  EXPECT_EQ(r.snapshot().front().peer, 0u);
  EXPECT_EQ(r.snapshot().back().peer, 99u);
}

TEST(TraceRing, ClearResets) {
  trace_ring r(trace_mode::ring, 16);
  for (std::uint32_t i = 0; i < 5; ++i) r.emit(0.0, trace_kind::join, i);
  r.clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.emitted(), 0u);
  r.emit(1.0, trace_kind::leave, 7);
  EXPECT_EQ(r.snapshot().front().peer, 7u);
}

TEST(TraceRing, RingEmitNeverAllocates) {
  // The flight-recorder hot path is one store into a preallocated slot,
  // even through several wraparounds — the same operator-new accounting
  // the rtree zero-allocation tests use.
  trace_ring r(trace_mode::ring, 64);
  const auto before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < 64 * 3 + 17; ++i) {
    r.emit(static_cast<double>(i), trace_kind::repair, i, i, i);
  }
  const auto after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(r.emitted(), 64u * 3 + 17);
}

TEST(TraceRing, ShardTagStampsRecords) {
  trace_ring r(trace_mode::ring, 16);
  r.set_shard(3);
  r.emit(0.0, trace_kind::crash, 42);
  EXPECT_EQ(r.snapshot().front().shard, 3u);
}

// -------------------------------------------------------------- chrome

TEST(ChromeTrace, StructureAndPhases) {
  std::vector<trace_record> recs;
  trace_record r;
  r.ts = 2.0;
  r.kind = static_cast<std::uint16_t>(trace_kind::stab_begin);
  r.shard = 1;
  r.peer = 5;
  r.a = 3;
  recs.push_back(r);
  r.ts = 4.0;
  r.kind = static_cast<std::uint16_t>(trace_kind::stab_end);
  recs.push_back(r);
  r.ts = 5.0;
  r.kind = static_cast<std::uint16_t>(trace_kind::publish);
  r.a = 77;
  recs.push_back(r);

  const auto json = to_chrome_trace(recs);
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // scoped instant
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":5"), std::string::npos);
  // Default scale: 1 sim tick -> 1000 us.
  EXPECT_NE(json.find("\"ts\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stabilize_begin\""), std::string::npos);
  // B and the instant carry args; E stays bare so viewers fold the pair.
  std::size_t args = 0;
  for (std::size_t at = json.find("\"args\""); at != std::string::npos;
       at = json.find("\"args\"", at + 1)) {
    ++args;
  }
  EXPECT_EQ(args, 2u);
}

// ----------------------------------------------------------- histogram

TEST(Histogram, QuantilesFromLogBuckets) {
  histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Log-bucketed contract: estimates land within one bucket (~19%).
  EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 * 0.20);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.20);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);  // clamped to observed max
  // q=0 answers the first bucket's upper bound: within ~19% above min.
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(0.0), 1.19);
}

TEST(Histogram, NonPositiveValuesLandInBucketZero) {
  histogram h;
  h.record(0.0);
  h.record(-5.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.buckets()[0], 2u);
}

TEST(Histogram, MergeAddsBucketsAndWidensRange) {
  histogram lo;
  histogram hi;
  for (int i = 1; i <= 100; ++i) lo.record(static_cast<double>(i));
  for (int i = 1000; i <= 1100; ++i) hi.record(static_cast<double>(i));
  lo += hi;
  EXPECT_EQ(lo.count(), 201u);
  EXPECT_DOUBLE_EQ(lo.min(), 1.0);
  EXPECT_DOUBLE_EQ(lo.max(), 1100.0);
  EXPECT_GT(lo.quantile(0.99), 900.0);
  EXPECT_LT(lo.quantile(0.25), 200.0);
  // Merging an empty histogram is the identity.
  histogram empty;
  const auto before = lo.count();
  lo += empty;
  EXPECT_EQ(lo.count(), before);
}

// ------------------------------------------------------------ registry

TEST(Registry, MergeAddsCountersLastWriteGauges) {
  registry a;
  registry b;
  a.counter("ops") = 2;
  a.gauge("height") = 1.5;
  a.hist("lat").record(10.0);
  b.counter("ops") = 3;
  b.counter("errors") = 7;
  b.gauge("height") = 9.0;
  b.hist("lat").record(20.0);
  a.merge(b);
  EXPECT_EQ(a.counters().at("ops"), 5u);
  EXPECT_EQ(a.counters().at("errors"), 7u);
  EXPECT_DOUBLE_EQ(a.gauges().at("height"), 9.0);
  EXPECT_EQ(a.hists().at("lat").count(), 2u);
}

TEST(Registry, ExpositionRoundTripsThroughParser) {
  registry reg;
  reg.counter("drt_events_total") = 42;
  reg.gauge("drt_height") = 3.5;
  auto& h = reg.hist("drt_lat_us");
  for (const double v : {1.0, 2.0, 4.0, 8.0, 1000.0}) h.record(v);

  const auto text = reg.expose();
  EXPECT_NE(text.find("# TYPE drt_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE drt_height gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE drt_lat_us histogram"), std::string::npos);

  const auto m = parse_exposition(text);
  EXPECT_DOUBLE_EQ(m.at("drt_events_total"), 42.0);
  EXPECT_DOUBLE_EQ(m.at("drt_height"), 3.5);
  EXPECT_DOUBLE_EQ(m.at("drt_lat_us_count"), 5.0);
  EXPECT_DOUBLE_EQ(m.at("drt_lat_us_sum"), 1015.0);
  EXPECT_DOUBLE_EQ(m.at("drt_lat_us_bucket{le=\"+Inf\"}"), 5.0);
  // Buckets are cumulative: every bucket sample is <= the count.
  for (const auto& [name, v] : m) {
    if (name.find("drt_lat_us_bucket") == 0) {
      EXPECT_LE(v, 5.0);
    }
  }
}

// ---------------------------------------------------- scenario streams

TEST(TraceScenario, SameSeedProducesByteIdenticalStreams) {
  auto run_once = [] {
    engine::overlay_backend_config cfg;
    cfg.net.seed = 2007;
    cfg.dr.trace = trace_mode::ring;
    cfg.dr.trace_dump = false;
    engine::drtree_backend be(cfg);
    engine::scenario_runner runner(be);
    runner.run(small_scenario());
    return be.trace()->snapshot();
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_GT(first.size(), 100u);  // every emit site exercised
  EXPECT_TRUE(records_equal(first, second));
}

TEST(TraceScenario, ShardedMergeIsDeterministic) {
  // Each shard records its own stream; two runs record identical
  // streams, and both shards record.
  auto run_once = [] {
    engine::overlay_backend_config cfg;
    cfg.net.seed = 2007;
    cfg.dr.trace = trace_mode::ring;
    cfg.dr.trace_dump = false;
    engine::drtree_backend be(cfg, 2);
    engine::scenario_runner runner(be);
    runner.run(small_scenario());
    std::vector<std::vector<trace_record>> streams;
    for (std::size_t s = 0; s < be.shards(); ++s) {
      streams.push_back(be.overlay(s).trace()->snapshot());
    }
    return streams;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_GT(first[0].size() + first[1].size(), 100u);
  for (std::size_t s = 0; s < first.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_TRUE(records_equal(first[s], second[s]));
    // The shard recorded, stamped its records, and kept them in time
    // order.
    ASSERT_FALSE(first[s].empty());
    for (std::size_t i = 0; i < first[s].size(); ++i) {
      EXPECT_EQ(first[s][i].shard, s);
      if (i > 0) {
        EXPECT_GE(first[s][i].ts, first[s][i - 1].ts);
      }
    }
  }
}

TEST(TraceScenario, DigestIdenticalAcrossTraceModes) {
  // The PR's central claim: the flight recorder observes the protocol
  // without perturbing it.  Same scenario, same seed, three trace modes,
  // one digest.
  auto digest_for = [](trace_mode mode) {
    engine::overlay_backend_config cfg;
    cfg.net.seed = 2007;
    cfg.dr.trace = mode;
    cfg.dr.trace_dump = false;
    engine::drtree_backend be(cfg);
    engine::scenario_runner runner(be);
    return runner.run(small_scenario()).digest();
  };
  const auto off = digest_for(trace_mode::off);
  EXPECT_EQ(off, digest_for(trace_mode::ring));
  EXPECT_EQ(off, digest_for(trace_mode::full));
}

TEST(TraceScenario, FullModeRecordsSimulatorMessages) {
  engine::overlay_backend_config cfg;
  cfg.net.seed = 2007;
  cfg.dr.trace = trace_mode::full;
  cfg.dr.trace_dump = false;
  engine::drtree_backend be(cfg);
  engine::scenario_runner runner(be);
  runner.run(small_scenario());
  std::uint64_t messages = 0;
  for (const auto& r : be.trace()->snapshot()) {
    if (r.kind == static_cast<std::uint16_t>(trace_kind::message)) ++messages;
  }
  EXPECT_GT(messages, 0u);
}

TEST(RunnerMetrics, RegistryCapturesSweepAndStabilizeDistributions) {
  engine::overlay_backend_config cfg;
  cfg.net.seed = 2007;
  engine::drtree_backend be(cfg);
  engine::scenario_runner runner(be);
  runner.run(small_scenario());
  const auto& reg = runner.metrics();
  // 128 events from the publish sweep, one hop-depth sample each.
  EXPECT_EQ(reg.counters().at("drt_events_published_total"), 128u);
  EXPECT_EQ(reg.hists().at("drt_publish_hop_depth").count(), 128u);
  EXPECT_GT(reg.counters().at("drt_stabilize_rounds_total"), 0u);
  EXPECT_EQ(reg.hists().at("drt_stabilize_round_us").count(),
            reg.counters().at("drt_stabilize_rounds_total"));
  // And the whole registry renders to a parseable exposition.
  const auto m = parse_exposition(reg.expose());
  EXPECT_DOUBLE_EQ(m.at("drt_events_published_total"), 128.0);
}

// ------------------------------------------------------- flight dumps

TEST(FlightDump, WritesTextAndChromeSibling) {
  scoped_dump_dir tmp;
  std::vector<trace_record> recs;
  for (std::uint32_t i = 0; i < 20; ++i) {
    trace_record r;
    r.ts = static_cast<double>(i);
    r.kind = static_cast<std::uint16_t>(trace_kind::repair);
    r.peer = i;
    recs.push_back(r);
  }
  const auto path = write_flight_dump("unit test", recs, 8, "ctx line");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.compare(0, tmp.dir().size(), tmp.dir()), 0);
  const auto text = slurp(path);
  EXPECT_NE(text.find("reason: unit test"), std::string::npos);
  EXPECT_NE(text.find("ctx line"), std::string::npos);
  EXPECT_NE(text.find("--- trace tail (oldest first) ---"), std::string::npos);
  // Only the last 8 records appear: ts 12 is the oldest surviving row.
  EXPECT_NE(text.find("records: 8 (of 20"), std::string::npos);
  EXPECT_NE(text.find("12  repair"), std::string::npos);
  EXPECT_EQ(text.find("11  repair"), std::string::npos);
  // The sibling Chrome export holds the same tail.
  const auto base = path.substr(0, path.size() - 4);  // strip ".txt"
  const auto json = slurp(base + ".trace.json");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(FlightDump, UnwritableDirectoryReturnsEmptyNotAbort) {
  const char* prev = std::getenv("DRT_DUMP_DIR");
  const std::string saved = prev != nullptr ? prev : "";
  ::setenv("DRT_DUMP_DIR", "/nonexistent/drt/nope", 1);
  const auto path = write_flight_dump("doomed", {}, 8, "");
  if (prev != nullptr) {
    ::setenv("DRT_DUMP_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("DRT_DUMP_DIR");
  }
  EXPECT_TRUE(path.empty());
}

TEST(FlightDump, FirstFalseNegativeDumpsAutomatically) {
  scoped_dump_dir tmp;
  engine::overlay_backend_config bc;
  bc.net.seed = 5;
  bc.dr.min_children = 2;
  bc.dr.max_children = 6;
  bc.dr.trace = trace_mode::ring;  // trace_dump defaults to true
  engine::drtree_backend be(bc);
  engine::runner_config rc;
  rc.workload.seed = 498;
  engine::scenario_runner runner(be, rc);
  runner.populate(40);
  ASSERT_GE(runner.converge(80), 0);
  // Corrupt the converged structure and publish before repair: some
  // interested peers are unreachable, so the sweep observes false
  // negatives and the overlay freezes its flight recorder once.
  overlay::corruptor c(be.overlay(), 11);
  c.corrupt(overlay::uniform_corruption(0.6));
  const auto acc =
      runner.publish_sweep(100, workload::event_family::matching);
  ASSERT_GT(acc.false_negatives, 0u)
      << "corruption failed to induce a false negative; pick a new seed";
  const auto dumps = tmp.list("drt_flight_first-false-negative_");
  std::vector<std::string> texts;
  for (const auto& f : dumps) {
    if (f.size() > 4 && f.compare(f.size() - 4, 4, ".txt") == 0) {
      texts.push_back(f);
    }
  }
  // One-shot: many FNs in the sweep, exactly one dump (plus its
  // .trace.json sibling).
  ASSERT_EQ(texts.size(), 1u) << "dumps: " << dumps.size();
  const auto text = slurp(tmp.dir() + "/" + texts.front());
  EXPECT_NE(text.find("first-false-negative"), std::string::npos);
}

TEST(FlightDump, CheckerViolationNamesDumpInReport) {
  scoped_dump_dir tmp;
  engine::overlay_backend_config bc;
  bc.net.seed = 9;
  bc.dr.min_children = 2;
  bc.dr.max_children = 6;
  bc.dr.trace = trace_mode::ring;
  engine::drtree_backend be(bc);
  engine::scenario_runner runner(be);
  runner.populate(30);
  ASSERT_GE(runner.converge(80), 0);
  overlay::corruptor c(be.overlay(), 13);
  ASSERT_GT(c.corrupt(overlay::uniform_corruption(0.5)), 0u);
  const auto report = overlay::checker(be.overlay())
                          .check(false, /*dump_on_violation=*/true);
  ASSERT_FALSE(report.legal());
  ASSERT_FALSE(report.dump_path.empty());
  const auto text = slurp(report.dump_path);
  EXPECT_NE(text.find("checker-violation"), std::string::npos);
  EXPECT_NE(text.find(report.violations.front()), std::string::npos);
  // The auto-dump is one-shot per overlay: a second check reports the
  // same violations but does not write another dump.
  const auto again = overlay::checker(be.overlay())
                         .check(false, /*dump_on_violation=*/true);
  EXPECT_FALSE(again.legal());
  EXPECT_TRUE(again.dump_path.empty());
}

}  // namespace
}  // namespace drt::obs
