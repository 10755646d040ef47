// The benchmark's four closed-loop workloads (README.md): publish,
// churn_repair, sharded_publish and drtd_service.  Each runs in its own
// process, generates every input from the workload seed before timing,
// checks its outputs, and reports either the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "spatial/types.h"

namespace perfbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< timed wall-clock per run
  bool trace = false;      ///< traced run: per-layer metrics + span file
  std::string trace_dir = ".bench_out";
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;       ///< sample counts, windows, why a value is 0
  bool in_result = true;  ///< part of the final JSON result line
};

struct run_report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<std::string> errors;  ///< why `correct` is false
  std::vector<std::string> notes;   ///< extra lines for the human output
};

/// Names accepted by run_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload to completion; never throws for a failed check —
/// failures land in the report.
run_report run_workload(const run_options& options);

// ----------------------------------------------------------- self tests
// Small-instance hooks: the same generators and op loops the workloads
// use, at sizes that run in milliseconds.

/// The deterministic per-op counts of an op sequence.
struct op_record {
  std::uint64_t msgs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t false_negatives = 0;
  std::uint64_t rounds = 0;
  bool operator==(const op_record&) const = default;
};

/// Subscription filters of the publish workloads for `seed`.
std::vector<drt::spatial::box> publish_filters(std::uint64_t seed,
                                          std::size_t peers);

/// Build a `peers`-peer publish overlay on `shards` shards for `seed`
/// and run `ops` publishes, traced or not; returns the per-op counts.
std::vector<op_record> publish_counts(std::uint64_t seed, std::size_t peers,
                                      std::size_t shards, std::size_t ops,
                                      bool traced);

/// Same for churn epochs on a `peers`-peer overlay.
std::vector<op_record> churn_counts(std::uint64_t seed, std::size_t peers,
                                    std::size_t epochs, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
