// Thin blocking client for the drtd wire protocol (DESIGN.md §10).
//
// One TCP connection, sequence-correlated request/reply, with unsolicited
// event_push frames buffered into events() as they interleave with
// replies.  Every operation fails soft — a dead daemon yields error
// returns (kNoSub / false / ok()==false), never exceptions or aborts —
// because a *client* losing its server is a runtime condition, not a
// programming error.
//
// Not thread-safe: one client per thread, like one socket per thread.
#ifndef DRT_RPC_CLIENT_H
#define DRT_RPC_CLIENT_H

#include <cstdint>
#include <utility>
#include <vector>

#include "rpc/wire.h"
#include "spatial/types.h"

namespace drt::rpc {

class client {
 public:
  client() = default;  ///< disconnected; use connect()
  explicit client(std::uint16_t port) { connect(port); }
  ~client() { close(); }

  client(const client&) = delete;
  client& operator=(const client&) = delete;
  client(client&& other) noexcept { swap(other); }
  client& operator=(client&& other) noexcept {
    if (this != &other) {
      close();
      swap(other);
    }
    return *this;
  }

  /// Connect to a drtd on 127.0.0.1:port.  Returns ok().
  bool connect(std::uint16_t port);
  void close();
  bool ok() const { return fd_ >= 0; }

  // ---------------------------------------------------------------- rpcs
  /// Returns the subscription id, or engine-style kNoSub (-1) on failure.
  std::uint64_t subscribe(const spatial::box& filter);
  bool unsubscribe(std::uint64_t sub);
  bool alive(std::uint64_t sub);
  bool ping();

  /// One publication's report; `ok == 0` when the daemon rejected it
  /// (unknown publisher) or the connection died.
  report_body publish(std::uint64_t publisher, const spatial::pt& value);
  /// Batched publication; chunks transparently at the envelope capacity
  /// (dr_batch_msg::kMaxEvents) and aggregates the reports.
  report_body publish_batch(std::uint64_t publisher,
                            const spatial::pt* values, std::size_t n);

  stat_body stat();
  /// The full live id list, paged transparently.
  std::vector<std::uint64_t> active();

  /// Event notifications received so far (in arrival order).  The caller
  /// may clear() between operations; the buffer is unbounded otherwise.
  std::vector<event_push_body>& events() { return events_; }

 private:
  /// Send one request frame and block for the matching reply; pushes are
  /// buffered on the way.  False on connection death, protocol error, or
  /// an error frame for our seq (code stored in last_error_).
  bool roundtrip(frame_type request, const void* body,
                 std::size_t body_bytes, frame_type expect,
                 std::vector<std::byte>& payload);
  bool send_all(const std::byte* data, std::size_t size);
  void fail() { close(); }

  int fd_ = -1;
  std::uint32_t next_seq_ = 1;
  std::vector<std::byte> rbuf_;
  std::vector<std::byte> sendbuf_;
  std::vector<event_push_body> events_;
  std::uint32_t last_error_ = 0;  ///< wire_errc of the last error frame

  void swap(client& other) noexcept {
    std::swap(fd_, other.fd_);
    std::swap(next_seq_, other.next_seq_);
    rbuf_.swap(other.rbuf_);
    sendbuf_.swap(other.sendbuf_);
    events_.swap(other.events_);
    std::swap(last_error_, other.last_error_);
  }
};

}  // namespace drt::rpc

#endif  // DRT_RPC_CLIENT_H
