// Protocol messages of the DR-tree overlay (Figures 8-14 of the paper).
//
// Membership, stabilization and search messages are one value type
// (dr_msg) dispatched on `kind`, unused fields defaulted; events ride the
// size-prefixed dr_batch_msg envelope.  Heights count from the leaves
// (leaf = 0), see DESIGN.md §5 — the paper's level l at a node of height
// h is l = root_height - h.
#ifndef DRT_DRTREE_MESSAGES_H
#define DRT_DRTREE_MESSAGES_H

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "sim/message.h"
#include "spatial/types.h"

namespace drt::overlay {

enum class msg_kind : std::uint8_t {
  // Membership (Figures 8 and 9).
  join_request,   ///< route a joining subtree toward the insertion point
  add_child,      ///< attach subtree `subject` at height `h` (Fig. 8)
  leave,          ///< controlled departure of child `subject` (Fig. 9)

  // Stabilization triggers that travel between peers (Figures 9, 14).
  check_structure,          ///< compaction request at height `h`
  initiate_new_connection,  ///< dissolve subtree: every leaf rejoins

  // Event dissemination (§2.3/§3), both carried by dr_batch_msg.
  event_up,    ///< events climbing toward the root
  event_down,  ///< events descending a subtree at height `h`

  // Distributed range search (§1: the balanced structure "makes it
  // suitable for performing efficient data storage or search").
  search_up,    ///< query climbing toward the root
  search_down,  ///< query descending a subtree at height `h`
  search_hit,   ///< a leaf whose filter intersects the query reports back
};

inline const char* to_string(msg_kind k) {
  switch (k) {
    case msg_kind::join_request: return "JOIN";
    case msg_kind::add_child: return "ADD_CHILD";
    case msg_kind::leave: return "LEAVE";
    case msg_kind::check_structure: return "CHECK_STRUCTURE";
    case msg_kind::initiate_new_connection: return "INITIATE_NEW_CONNECTION";
    case msg_kind::event_up: return "EVENT_UP";
    case msg_kind::event_down: return "EVENT_DOWN";
    case msg_kind::search_up: return "SEARCH_UP";
    case msg_kind::search_down: return "SEARCH_DOWN";
    case msg_kind::search_hit: return "SEARCH_HIT";
  }
  return "?";
}

struct dr_msg {
  msg_kind kind = msg_kind::join_request;

  /// The peer the message is about (joining subtree root, leaving child,
  /// subtree to attach, ...).  Not necessarily the sender.
  spatial::peer_id subject = spatial::kNoPeer;

  /// Height the operation applies to (see file comment).
  std::size_t h = 0;

  /// MBR of the subject subtree (join/add_child) — carried so the
  /// receiver can route without a remote read.
  spatial::box mbr = spatial::box::empty();

  /// Remaining hop budget for routed messages.
  std::size_t hops_left = 0;

  /// join_request phase: false while climbing to the root, true while
  /// descending toward the insertion point (Fig. 8).
  bool descending = false;

  /// Network messages traversed so far by this message chain (latency
  /// metric of experiment E11).
  std::size_t hop = 0;

  /// search_*: query identity and the peer collecting the hits.
  std::uint64_t query_id = 0;
  spatial::peer_id reply_to = spatial::kNoPeer;
};

/// The one event-dissemination message (§2.3/§3, DESIGN.md §9): up to
/// kMaxEvents co-located events sharing one envelope and one descent,
/// split only where children's admit sets diverge.  `kind` is event_up or
/// event_down; a single publish is the one-event case.  Sent size-prefixed
/// (sim::simulator::send_prefix): a k-event envelope occupies
/// bytes_for(k), not the full-capacity struct, so small envelopes ride
/// small pool classes.  Receivers must only read events[0..count).
struct dr_batch_msg {
  /// Capacity per envelope; publishers chunk larger requests.  Chosen so
  /// a full envelope (32 B/event) stays well inside the payload pool's
  /// largest size class.
  static constexpr std::size_t kMaxEvents = 64;

  /// Leaves events[] unwritten: spatial::event has default member
  /// initializers, so a plain array would store all kMaxEvents slots
  /// (2 KiB) every time a hop builds an envelope or a filtered subset.
  /// Whoever builds one writes events[0..count); decoders that need a
  /// defined tail zero it themselves (rpc::read_batch).
  dr_batch_msg() {}

  msg_kind kind = msg_kind::event_down;
  std::uint32_t count = 0;
  std::uint32_t h = 0;          ///< target height (top() bounds it anyway)
  std::uint32_t hops_left = 0;  ///< remaining hop budget
  std::uint32_t hop = 0;        ///< network messages traversed so far
  union {
    spatial::event events[kMaxEvents];
  };

  /// Wire size of an envelope holding `n` events.
  static constexpr std::size_t bytes_for(std::size_t n) {
    return offsetof(dr_batch_msg, events) + n * sizeof(spatial::event);
  }
};

// Protocol messages must ride the simulator's allocation-free payload
// path: trivially copyable (no per-message destructor work) and within
// the envelope's pooled small-buffer capacity (blocks recycle instead of
// hitting the global allocator).  If a new field grows a message past a
// limit, shrink the message — don't silently fall back to operator new
// on every send.  The size bounds pin the pool size class each message
// rides (64 B quanta after the 32 B block header).
static_assert(std::is_trivially_copyable_v<dr_msg>);
static_assert(sizeof(dr_msg) <= 96, "dr_msg crossed into a larger class");
// A single publish (one-event envelope) stays in the 128 B class: block
// header plus payload within two 64 B quanta.
static_assert(sim::envelope::kHeaderBytes + dr_batch_msg::bytes_for(1) <= 128,
              "a single published event must not cross into a larger class");
static_assert(std::is_trivially_copyable_v<dr_batch_msg> &&
              std::is_trivially_destructible_v<dr_batch_msg>);
static_assert(dr_batch_msg::bytes_for(dr_batch_msg::kMaxEvents) <=
              sim::envelope::kMaxPooledPayload);
static_assert(sizeof(dr_msg) <= sim::envelope::kMaxPooledPayload);

/// Timer types (sim::process::on_timer).
enum : std::uint64_t {
  kTimerStabilize = 1,  ///< periodic CHECK_* pass (the paper's timeout)
};

}  // namespace drt::overlay

#endif  // DRT_DRTREE_MESSAGES_H
