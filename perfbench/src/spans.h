// Benchmark-owned tracing: spans recorded around calls into the
// program's public APIs, kept in memory and written out at exit.
//
// A span has a name, start, end, the span that encloses it (its parent)
// and the id of the op it belongs to; every span of one op shares that
// id.  A layer's self time is its span's duration minus the part of that
// interval covered by its child spans.
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

struct span {
  std::uint32_t name = 0;          ///< index into the log's name table
  std::uint32_t parent = kNoSpan;  ///< enclosing span (same log)
  std::uint64_t op = 0;            ///< op id shared by the op's spans
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;  ///< work counted at this boundary (messages)
};

/// One thread's spans.  Spans nest: open() makes the innermost open span
/// the new span's parent, and close() must close the innermost one.
class span_log {
 public:
  std::uint32_t name_id(std::string_view name);
  const std::vector<std::string>& names() const { return names_; }

  std::uint32_t open(std::uint32_t name, std::uint64_t op);
  void close(std::uint32_t span_index);
  void add_count(std::uint32_t span_index, std::uint64_t n) {
    spans_[span_index].count += n;
  }

  const std::vector<span>& spans() const { return spans_; }

 private:
  std::vector<std::string> names_;
  std::vector<span> spans_;
  std::vector<std::uint32_t> stack_;  ///< open spans, innermost last
};

/// RAII span; a null log records nothing (the untraced path).
class scoped_span {
 public:
  scoped_span(span_log* log, std::uint32_t name, std::uint64_t op)
      : log_(log), index_(log != nullptr ? log->open(name, op) : kNoSpan) {}
  ~scoped_span() {
    if (log_ != nullptr) log_->close(index_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  void add_count(std::uint64_t n) {
    if (log_ != nullptr) log_->add_count(index_, n);
  }

 private:
  span_log* log_;
  std::uint32_t index_;
};

/// Per-name totals over a log: calls, wall time, self time and counts.
struct layer_time {
  std::uint64_t calls = 0;
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to it), indexed like `spans`.
std::vector<double> self_times(const std::vector<span>& spans);

/// Totals per name id (the vector is indexed by name id).
std::vector<layer_time> layer_times(const span_log& log);

/// Write the logs as a Chrome trace-event file ("X" complete events, one
/// tid per log, args carry the op id), keeping at most `max_spans`
/// spans per log.  Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const span_log*>& logs,
                        std::size_t max_spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
