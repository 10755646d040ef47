// perfbench: runs one workload and prints every metric by name with its
// unit, then, as the last line, one JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Exit status 0 when every output check passed, 1 when one failed (the
// result line then says correct=false), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\nworkloads:",
               why);
  for (const auto& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

/// JSON string contents: metric names and units are plain ASCII, but
/// error texts are escaped anyway.
std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(v, o.seed)) return usage("--seed takes an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(v, n) || n == 0 || n > 3600) {
        return usage("--seconds takes an integer in 1..3600");
      }
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(v, n) || n > 1) return usage("--trace takes 0 or 1");
      o.trace = n == 1;
      have_trace = true;
    } else if (arg == "--trace-dir") {
      o.trace_dir = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == o.workload;
  if (!known) return usage(("unknown workload " + o.workload).c_str());

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);
  auto report = perfbench::run_workload(o);

  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.correct = false;
      report.errors.push_back(m.name + " is not a finite number");
    }
  }
  for (const auto& m : report.metrics) {
    std::printf("  %-28s %16.6f %-6s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.in_result ? "" : "(not in result) ",
                m.note.c_str());
  }
  for (const auto& n : report.notes) std::printf("  note: %s\n", n.c_str());
  for (const auto& e : report.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics) {
    if (!m.in_result) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "\"" : ", \"") + escaped(m.name) + "\": {\"value\": " +
            value + ", \"unit\": \"" + escaped(m.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
