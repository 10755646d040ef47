#include "obs/trace.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace drt::obs {

const char* to_string(trace_kind k) {
  switch (k) {
    case trace_kind::none: return "none";
    case trace_kind::join: return "join";
    case trace_kind::leave: return "leave";
    case trace_kind::crash: return "crash";
    case trace_kind::restart: return "restart";
    case trace_kind::stab_begin: return "stabilize_begin";
    case trace_kind::stab_end: return "stabilize_end";
    case trace_kind::publish: return "publish";
    case trace_kind::delivery: return "delivery";
    case trace_kind::false_neg: return "false_negative";
    case trace_kind::repair: return "repair";
    case trace_kind::violation: return "violation";
    case trace_kind::message: return "message";
  }
  return "?";
}

std::string to_chrome_trace(const std::vector<trace_record>& records,
                            double us_per_tick) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& r : records) {
    const auto kind = static_cast<trace_kind>(r.kind);
    const char* ph = "i";
    if (kind == trace_kind::stab_begin) ph = "B";
    if (kind == trace_kind::stab_end) ph = "E";
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << to_string(kind) << "\",\"cat\":\"drt\",\"ph\":\""
        << ph << "\",\"ts\":" << r.ts * us_per_tick << ",\"pid\":" << r.shard
        << ",\"tid\":" << r.peer;
    if (*ph == 'i') out << ",\"s\":\"t\"";
    // E events carry no args so begin/end pairs stay symmetric for viewers
    // that fold them into complete events.
    if (kind != trace_kind::stab_end) {
      out << ",\"args\":{\"a\":" << r.a << ",\"b\":" << r.b << "}";
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

namespace {

std::string slug(const std::string& s) {
  std::string out;
  for (const char c : s) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    out.push_back(keep ? c : '-');
  }
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto n = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return n == text.size();
}

}  // namespace

std::string write_flight_dump(const std::string& reason,
                              const std::vector<trace_record>& records,
                              std::size_t last_n,
                              const std::string& context) {
  static std::atomic<std::uint64_t> seq{0};
  const char* dir = std::getenv("DRT_DUMP_DIR");
  if (dir == nullptr || dir[0] == '\0') dir = ".";
  std::ostringstream name;
  name << dir << "/drt_flight_" << slug(reason) << "_" << ::getpid() << "_"
       << seq.fetch_add(1);
  const auto base = name.str();

  const std::size_t start =
      records.size() > last_n ? records.size() - last_n : 0;
  std::ostringstream out;
  out << "DR-tree flight recorder dump\n"
      << "reason: " << reason << "\n"
      << "records: " << records.size() - start << " (of " << records.size()
      << " held; chrome trace of the same tail in " << base
      << ".trace.json)\n\n";
  if (!context.empty()) out << context << "\n";
  out << "--- trace tail (oldest first) ---\n"
      << "ts  kind  shard  peer  a  b\n";
  std::vector<trace_record> tail(records.begin() + static_cast<long>(start),
                                 records.end());
  for (const auto& r : tail) {
    out << r.ts << "  " << to_string(static_cast<trace_kind>(r.kind)) << "  "
        << r.shard << "  " << r.peer << "  " << r.a << "  " << r.b << "\n";
  }
  if (!write_file(base + ".txt", out.str())) return {};
  write_file(base + ".trace.json", to_chrome_trace(tail));
  return base + ".txt";
}

}  // namespace drt::obs
