// Length-prefixed binary wire format for the service mode (DESIGN.md §10).
//
// Every frame is a fixed 16-byte header followed by a trivially-copyable
// payload struct, memcpy'd verbatim — the same discipline the simulator's
// payload pool enforces on protocol messages (sim/message.h), extended to
// the socket.  The client-facing RPCs use small request/reply structs
// defined here; `publish_batch` carries the overlay's own `dr_batch_msg`
// envelope, size-prefixed.  Metrics are not a frame: the daemon serves
// them over plain-HTTP `GET /metrics` on the same port (DESIGN.md §12).
//
// The transport is localhost-only for now, so fields travel in host byte
// order; the versioned header is what lets a future cross-machine format
// bump `kWireVersion` and negotiate.  Decoding is *graceful* on untrusted
// bytes: `try_decode` returns a status (never aborts) so a daemon fed
// garbage closes the connection instead of dying — DRT_EXPECT contracts
// only guard encoder misuse, which is a programming error on our side.
#ifndef DRT_RPC_WIRE_H
#define DRT_RPC_WIRE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "drtree/messages.h"
#include "spatial/types.h"
#include "util/expect.h"

namespace drt::rpc {

/// "DRT1" as little-endian bytes on the wire.
inline constexpr std::uint32_t kMagic = 0x31545244u;
inline constexpr std::uint16_t kWireVersion = 1;

/// Upper bound on one frame's payload.  Sized so the largest legitimate
/// payloads — a full 64-event `dr_batch_msg` envelope (~2 KiB) and a full
/// `active_ok_body` id page — fit with room, while a corrupt length field
/// can never make a reader buffer unbounded garbage.
inline constexpr std::size_t kMaxPayloadBytes = 4080;

enum class frame_type : std::uint16_t {
  // Liveness.
  ping = 1,
  pong = 2,

  // Client-facing RPCs (request / reply pairs share a header `seq`).
  subscribe = 10,       ///< subscribe_body -> subscribe_ok
  subscribe_ok = 11,    ///< sub_body
  unsubscribe = 12,     ///< sub_body -> unsubscribe_ok
  unsubscribe_ok = 13,  ///< bool_body
  alive = 14,           ///< sub_body -> alive_ok
  alive_ok = 15,        ///< bool_body
  publish = 16,         ///< publish_body -> publish_report
  publish_batch = 17,   ///< overlay::dr_batch_msg prefix -> publish_report
  publish_report = 18,  ///< report_body
  stat = 20,            ///< (empty) -> stat_ok
  stat_ok = 21,         ///< stat_body
  active = 22,          ///< active_req_body -> active_ok (paged)
  active_ok = 23,       ///< active_ok_body prefix

  // Unsolicited server->client notification (seq = 0).
  event_push = 30,  ///< event_push_body

  error = 50,  ///< error_body, seq echoes the failing request
};
// Retired numbers, never to be reused: 24-25 (paged metrics text) and
// 40-41 (a peer-to-peer channel no daemon served).  drtd answers them as
// it answers any unknown type, with wire_errc::unsupported.

// ------------------------------------------------------------------ header

struct frame_header {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t type = 0;
  std::uint32_t length = 0;  ///< payload bytes following the header
  std::uint32_t seq = 0;     ///< request/reply correlation; 0 = unsolicited
};
static_assert(sizeof(frame_header) == 16);
static_assert(std::is_trivially_copyable_v<frame_header>);

// ---------------------------------------------------------------- payloads

struct subscribe_body {
  spatial::box filter = spatial::box::empty();
};

/// Subscription id carrier (subscribe_ok, unsubscribe, alive).
struct sub_body {
  std::uint64_t sub = 0;
};

struct bool_body {
  std::uint32_t value = 0;
  std::uint32_t reserved = 0;
};

struct publish_body {
  std::uint64_t publisher = 0;
  spatial::pt value{};
};

/// One publication's outcome — engine::delivery_report, flattened to
/// fixed-width fields.  `ok == 0` means the daemon rejected the request
/// (unknown/dead publisher) and every count is zero.
struct report_body {
  std::uint64_t interested = 0;
  std::uint64_t delivered = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;
  std::uint64_t messages = 0;
  std::uint32_t max_hops = 0;
  std::uint32_t ok = 0;
};

/// Structural snapshot + cost counters: everything engine::net_backend
/// needs to answer shape()/counters()/legal()/population()/root() in one
/// round-trip, computed by one checker pass server-side.
struct stat_body {
  std::uint64_t population = 0;
  std::uint64_t height = 0;
  std::uint64_t max_degree = 0;
  std::uint64_t routing_state = 0;
  std::uint64_t messages = 0;  ///< overlay network messages so far (total)
  std::uint64_t root = 0;      ///< engine::kNoSub when fragmented
  double avg_degree = 0.0;
  std::uint32_t legal = 0;
  std::uint32_t reserved = 0;
};

struct active_req_body {
  std::uint32_t offset = 0;
  std::uint32_t reserved = 0;
};

/// One page of the live-subscription id list, in the backend's stable
/// (ascending) order.  `total` is the full population so the client knows
/// when to stop paging; like dr_batch_msg the struct is sent size-prefixed
/// so small pages ride small frames.
struct active_ok_body {
  static constexpr std::size_t kMaxIds = 480;

  std::uint64_t total = 0;
  std::uint32_t offset = 0;
  std::uint32_t count = 0;
  std::uint64_t ids[kMaxIds];

  static constexpr std::size_t bytes_for(std::size_t n) {
    return offsetof(active_ok_body, ids) + n * sizeof(std::uint64_t);
  }
};

/// Push notification: subscription `sub` (owned by this connection)
/// received `ev`.  `max_hops` is the event's worst delivery-path length
/// across all receivers (per-receiver hops are not tracked end to end).
struct event_push_body {
  std::uint64_t sub = 0;
  spatial::event ev{};
  std::uint32_t max_hops = 0;
  std::uint32_t reserved = 0;
};

enum class wire_errc : std::uint32_t {
  none = 0,
  bad_request = 1,   ///< malformed body for the frame type
  unknown_sub = 2,   ///< id not live or not owned by this connection
  unsupported = 3,   ///< frame type the daemon does not serve
};

struct error_body {
  std::uint32_t code = 0;  ///< wire_errc
  std::uint32_t reserved = 0;
};

static_assert(std::is_trivially_copyable_v<subscribe_body>);
static_assert(std::is_trivially_copyable_v<sub_body>);
static_assert(std::is_trivially_copyable_v<bool_body>);
static_assert(std::is_trivially_copyable_v<publish_body>);
static_assert(std::is_trivially_copyable_v<report_body>);
static_assert(std::is_trivially_copyable_v<stat_body>);
static_assert(std::is_trivially_copyable_v<active_req_body>);
static_assert(std::is_trivially_copyable_v<active_ok_body>);
static_assert(std::is_trivially_copyable_v<event_push_body>);
static_assert(std::is_trivially_copyable_v<error_body>);
static_assert(active_ok_body::bytes_for(active_ok_body::kMaxIds) <=
              kMaxPayloadBytes);
static_assert(overlay::dr_batch_msg::bytes_for(
                  overlay::dr_batch_msg::kMaxEvents) <= kMaxPayloadBytes);

// ----------------------------------------------------------------- encode

/// Append one frame carrying `body_bytes` raw payload bytes.  Contract
/// (DRT_EXPECT): the payload must fit the wire bound — oversized frames
/// are an encoder bug, not a runtime condition.
inline void put_frame_bytes(std::vector<std::byte>& out, frame_type type,
                            std::uint32_t seq, const void* body,
                            std::size_t body_bytes) {
  DRT_EXPECT(body_bytes <= kMaxPayloadBytes);
  DRT_EXPECT(body_bytes == 0 || body != nullptr);
  frame_header h;
  h.type = static_cast<std::uint16_t>(type);
  h.length = static_cast<std::uint32_t>(body_bytes);
  h.seq = seq;
  const auto base = out.size();
  out.resize(base + sizeof(h) + body_bytes);
  std::memcpy(out.data() + base, &h, sizeof(h));
  if (body_bytes != 0) {
    std::memcpy(out.data() + base + sizeof(h), body, body_bytes);
  }
}

/// Append one frame whose payload is the struct `body` (or its first
/// `body_bytes` when a struct travels size-prefixed, e.g. dr_batch_msg).
template <typename T>
void put_frame(std::vector<std::byte>& out, frame_type type,
               std::uint32_t seq, const T& body,
               std::size_t body_bytes = sizeof(T)) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire payloads are memcpy'd verbatim");
  DRT_EXPECT(body_bytes <= sizeof(T));
  put_frame_bytes(out, type, seq, &body, body_bytes);
}

/// Append a payload-less frame (ping/pong/stat).
inline void put_frame(std::vector<std::byte>& out, frame_type type,
                      std::uint32_t seq) {
  put_frame_bytes(out, type, seq, nullptr, 0);
}

// ----------------------------------------------------------------- decode

enum class decode_status : std::uint8_t {
  ok,           ///< one frame decoded; `consumed` bytes may be dropped
  need_more,    ///< buffer holds a frame prefix; read more bytes
  bad_magic,    ///< stream desynchronized or not ours — close it
  bad_version,  ///< well-formed header from a different protocol rev
  bad_length,   ///< length field exceeds kMaxPayloadBytes
};

inline const char* to_string(decode_status s) {
  switch (s) {
    case decode_status::ok: return "ok";
    case decode_status::need_more: return "need_more";
    case decode_status::bad_magic: return "bad_magic";
    case decode_status::bad_version: return "bad_version";
    case decode_status::bad_length: return "bad_length";
  }
  return "?";
}

/// A decoded frame borrowing the input buffer (valid only while the
/// buffer is).  `read` copies the payload out into a struct, failing
/// softly on any size mismatch — the receiving side's guard against a
/// peer that frames the right type around the wrong bytes.
struct frame_view {
  frame_type type = frame_type::ping;
  std::uint32_t seq = 0;
  const std::byte* payload = nullptr;
  std::uint32_t size = 0;

  /// Exact-size payload extraction.
  template <typename T>
  bool read(T& out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size != sizeof(T)) return false;
    std::memcpy(&out, payload, sizeof(T));
    return true;
  }
};

/// Decode one frame from the front of [data, data+size).  On `ok`,
/// `out` borrows the buffer and `consumed` is the full frame size; on
/// `need_more` nothing is consumed; on the bad_* statuses the stream is
/// unrecoverable (no resync scan — close the connection).
inline decode_status try_decode(const std::byte* data, std::size_t size,
                                frame_view& out, std::size_t& consumed) {
  consumed = 0;
  if (size < sizeof(frame_header)) return decode_status::need_more;
  frame_header h;
  std::memcpy(&h, data, sizeof(h));
  if (h.magic != kMagic) return decode_status::bad_magic;
  if (h.version != kWireVersion) return decode_status::bad_version;
  if (h.length > kMaxPayloadBytes) return decode_status::bad_length;
  if (size < sizeof(h) + h.length) return decode_status::need_more;
  out.type = static_cast<frame_type>(h.type);
  out.seq = h.seq;
  out.payload = data + sizeof(h);
  out.size = h.length;
  consumed = sizeof(h) + h.length;
  return decode_status::ok;
}

/// Validated extraction of a size-prefixed dr_batch_msg payload: the
/// frame must hold exactly bytes_for(count) for a count within capacity.
/// The tail past `count` events is zeroed so receivers can never read
/// uninitialized event slots.
inline bool read_batch(const frame_view& f, overlay::dr_batch_msg& out) {
  if (f.size < overlay::dr_batch_msg::bytes_for(0) ||
      f.size > sizeof(overlay::dr_batch_msg)) {
    return false;
  }
  // The envelope's constructor leaves its events unwritten; zero the
  // whole struct so the tail past `count` reads as zeros, never garbage.
  std::memset(static_cast<void*>(&out), 0, sizeof(out));
  std::memcpy(static_cast<void*>(&out), f.payload, f.size);
  return out.count <= overlay::dr_batch_msg::kMaxEvents &&
         f.size == overlay::dr_batch_msg::bytes_for(out.count);
}

/// Same validated prefix extraction for active_ok_body pages.
inline bool read_active_page(const frame_view& f, active_ok_body& out) {
  if (f.size < active_ok_body::bytes_for(0) ||
      f.size > sizeof(active_ok_body)) {
    return false;
  }
  out = active_ok_body{};
  std::memcpy(&out, f.payload, f.size);
  return out.count <= active_ok_body::kMaxIds &&
         f.size == active_ok_body::bytes_for(out.count);
}

}  // namespace drt::rpc

#endif  // DRT_RPC_WIRE_H
