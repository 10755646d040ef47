#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace perfbench {

std::uint32_t span_log::name_id(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t span_log::open(std::uint32_t name, std::uint64_t op) {
  span s;
  s.name = name;
  s.parent = stack_.empty() ? kNoSpan : stack_.back();
  s.op = op;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(index);
  s.begin_ns = now_ns();  // last, so bookkeeping stays outside the span
  spans_.push_back(s);
  return index;
}

void span_log::close(std::uint32_t span_index) {
  const auto t = now_ns();
  spans_[span_index].end_ns = t;
  if (!stack_.empty() && stack_.back() == span_index) stack_.pop_back();
}

std::vector<double> self_times(const std::vector<span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].begin_ns);
  }
  // Children grouped by parent in start order, then one merge sweep per
  // parent subtracts the union of their (clipped) intervals.
  std::vector<std::tuple<std::uint32_t, std::int64_t, std::int64_t>> kids;
  for (const auto& s : spans) {
    if (s.parent != kNoSpan && s.parent < spans.size()) {
      kids.emplace_back(s.parent, s.begin_ns, s.end_ns);
    }
  }
  std::sort(kids.begin(), kids.end());
  std::size_t i = 0;
  while (i < kids.size()) {
    const auto parent = std::get<0>(kids[i]);
    const auto lo = spans[parent].begin_ns;
    const auto hi = spans[parent].end_ns;
    std::int64_t covered = 0;
    std::int64_t run_begin = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (; i < kids.size() && std::get<0>(kids[i]) == parent; ++i) {
      const auto b = std::max(std::get<1>(kids[i]), lo);
      const auto e = std::min(std::get<2>(kids[i]), hi);
      if (e <= b) continue;
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = b;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    self[parent] -= static_cast<double>(covered);
  }
  return self;
}

std::vector<layer_time> layer_times(const span_log& log) {
  std::vector<layer_time> out(log.names().size());
  const auto& spans = log.spans();
  const auto self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& lt = out[spans[i].name];
    ++lt.calls;
    lt.count += spans[i].count;
    lt.total_ns += static_cast<double>(spans[i].end_ns - spans[i].begin_ns);
    lt.self_ns += self[i];
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const span_log*>& logs,
                        std::size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const auto* log : logs) {
    if (!log->spans().empty() &&
        (!have_origin || log->spans().front().begin_ns < origin)) {
      origin = log->spans().front().begin_ns;
      have_origin = true;
    }
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    const auto& spans = logs[tid]->spans();
    const auto& names = logs[tid]->names();
    const auto n = std::min(spans.size(), max_spans);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"count\":%llu}}",
                   first ? "" : ",\n", names[s.name].c_str(), tid,
                   static_cast<double>(s.begin_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.count));
      first = false;
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
