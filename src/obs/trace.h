// Flight-recorder tracing (DESIGN.md §12): per-shard SPSC rings of
// fixed-size binary trace records covering the overlay's protocol life —
// membership (join/leave/crash/restart), stabilize passes and the repairs
// they performed, publish fan-out (delivery hops, false negatives) — plus
// an exporter to Chrome trace-event JSON (loadable in Perfetto) and a
// last-N "flight dump" written when a checker violation or the first
// false negative of a sweep is observed.
//
// Cost model: with `dr_config::trace == off` no ring exists and every
// emit site is a single branch on a null pointer — zero allocations,
// zero stores, and (pinned by tests) bit-identical metrics digests.
// `ring` mode writes 32-byte records into a preallocated power-of-two
// ring, overwriting the oldest; `full` mode grows without bound and
// additionally records every simulator message delivery.
//
// Timestamps are the owning simulator's virtual time, so traces are as
// deterministic as the run that produced them.  drtd's records are its
// hosted overlay's, so they too carry that overlay's simulated time.
#ifndef DRT_OBS_TRACE_H
#define DRT_OBS_TRACE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace drt::obs {

enum class trace_mode : std::uint8_t {
  off,   ///< no ring, emit sites compile to a null check
  ring,  ///< bounded ring, oldest records overwritten
  full,  ///< unbounded append + per-message simulator records
};

inline const char* to_string(trace_mode m) {
  switch (m) {
    case trace_mode::off: return "off";
    case trace_mode::ring: return "ring";
    case trace_mode::full: return "full";
  }
  return "?";
}

/// What one record describes.  The `a`/`b` payload fields are
/// kind-specific; see the emit sites (drtree/overlay.cpp, drtree/peer.cpp)
/// and the exporter's `args` rendering for the mapping.
enum class trace_kind : std::uint16_t {
  none = 0,
  join = 1,        ///< peer created, join protocol started
  leave = 2,       ///< controlled departure (a = efficient_leave)
  crash = 3,       ///< silent crash
  restart = 4,     ///< dead peer revived
  stab_begin = 5,  ///< stabilize pass started (a = top height)
  stab_end = 6,    ///< pass finished (a = repairs performed, b = messages)
  publish = 7,     ///< event published (a = event id)
  delivery = 8,    ///< event delivered (a = event id, b = hop count)
  false_neg = 9,   ///< interested peer missed (a = event id)
  repair = 10,     ///< one repair action (a = module, b = height)
  violation = 11,  ///< checker found the structure illegal (a = count;
                   ///< 1 from checker::legal(), which stops at the first)
  message = 12,    ///< simulator delivery, full mode only (a = type, b = from)
};

const char* to_string(trace_kind k);

/// One fixed-size binary record.  32 bytes, trivially copyable — the
/// ring is a flat array and merge/export/dump treat streams as bytes.
struct trace_record {
  double ts = 0.0;          ///< the emitting simulator's virtual time
  std::uint16_t kind = 0;   ///< trace_kind
  std::uint16_t shard = 0;  ///< owning shard (0 when unsharded)
  std::uint32_t peer = 0;   ///< subject peer id
  std::uint64_t a = 0;      ///< kind-specific
  std::uint64_t b = 0;      ///< kind-specific
};
static_assert(sizeof(trace_record) == 32);
static_assert(std::is_trivially_copyable_v<trace_record>);

/// The flight recorder: one writer (the owning shard's thread), readers
/// only between passes / at barriers — the same single-writer discipline
/// the sharded kernel already enforces on everything shard-local.
class trace_ring {
 public:
  explicit trace_ring(trace_mode mode, std::size_t capacity = 1u << 14)
      : mode_(mode) {
    if (mode_ == trace_mode::ring) {
      std::size_t cap = 16;
      while (cap < capacity) cap <<= 1;  // power of two for cheap wrap
      buf_.resize(cap);
      mask_ = cap - 1;
    }
  }

  trace_mode mode() const { return mode_; }
  std::uint16_t shard() const { return shard_; }
  void set_shard(std::uint16_t s) { shard_ = s; }

  /// Hot path: one store into a preallocated slot (ring) or an amortized
  /// append (full).  Never called in off mode — emit sites hold a null
  /// pointer instead of an off-mode ring.
  void emit(double ts, trace_kind kind, std::uint32_t peer,
            std::uint64_t a = 0, std::uint64_t b = 0) {
    trace_record r;
    r.ts = ts;
    r.kind = static_cast<std::uint16_t>(kind);
    r.shard = shard_;
    r.peer = peer;
    r.a = a;
    r.b = b;
    if (mode_ == trace_mode::ring) {
      buf_[head_ & mask_] = r;
    } else {
      buf_.push_back(r);
    }
    ++head_;
  }

  /// Total records ever emitted (>= size() once the ring wrapped).
  std::uint64_t emitted() const { return head_; }

  /// Records currently held.
  std::size_t size() const {
    if (mode_ == trace_mode::ring) {
      return head_ < buf_.size() ? static_cast<std::size_t>(head_)
                                 : buf_.size();
    }
    return buf_.size();
  }

  std::size_t capacity() const {
    return mode_ == trace_mode::ring ? buf_.size() : SIZE_MAX;
  }

  /// Oldest-to-newest copy of the held records.
  std::vector<trace_record> snapshot() const {
    std::vector<trace_record> out;
    const auto n = size();
    out.reserve(n);
    if (mode_ == trace_mode::ring && head_ > buf_.size()) {
      const auto start = head_ & mask_;  // oldest surviving slot
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(buf_[(start + i) & mask_]);
      }
    } else {
      out.assign(buf_.begin(), buf_.begin() + static_cast<long>(n));
    }
    return out;
  }

  /// The newest `n` records, oldest first.
  std::vector<trace_record> tail(std::size_t n) const {
    auto all = snapshot();
    if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<long>(n));
    return all;
  }

  void clear() {
    if (mode_ != trace_mode::ring) buf_.clear();
    head_ = 0;
  }

 private:
  trace_mode mode_;
  std::uint16_t shard_ = 0;
  std::uint64_t head_ = 0;  ///< total emits; next write slot = head_ & mask_
  std::size_t mask_ = 0;
  std::vector<trace_record> buf_;
};

/// Chrome trace-event JSON ("traceEvents" array format, loadable in
/// Perfetto / chrome://tracing).  pid = shard, tid = peer; stabilize
/// passes become B/E duration events, everything else instants.
/// Timestamps are scaled by `us_per_tick` (sim time unit -> microseconds).
std::string to_chrome_trace(const std::vector<trace_record>& records,
                            double us_per_tick = 1000.0);

/// Write the flight dump: `reason` and `context` (violations, instance
/// chains, ...) followed by the last `last_n` records as text, plus a
/// sibling `<path>.trace.json` Chrome export of the same records.  Files
/// land in $DRT_DUMP_DIR (default ".").  Returns the text file's path,
/// or "" when the directory is not writable — diagnostics never abort
/// the run they are diagnosing.
std::string write_flight_dump(const std::string& reason,
                              const std::vector<trace_record>& records,
                              std::size_t last_n,
                              const std::string& context);

}  // namespace drt::obs

#endif  // DRT_OBS_TRACE_H
