// The drtd service core (DESIGN.md §10): one DR-tree overlay — a
// one-shard engine::drtree_backend — hosted behind a localhost TCP
// listener, serving the wire protocol of
// rpc/wire.h to many concurrent client connections on a single-threaded
// event loop (rpc/event_loop.h).
//
// Ownership and churn: every subscription is owned by the connection
// that created it.  A connection closing — gracefully or by vanishing
// mid-run — unsubscribes everything it owned through the overlay's
// controlled-leave path, so *connection close is the churn primitive*
// the net backend advertises.  There is no cap_crash here yet: a real
// crash of overlay state without departure needs peer processes, not a
// hosted overlay.
//
// Determinism: the daemon consumes no RNG of its own and, with
// `stabilize_every_ms == 0`, injects no wall-clock traffic — the hosted
// overlay then performs exactly the operations clients send, in arrival
// order, which is what makes the drtree_backend-vs-net_backend recorder
// digests bit-identical on a single-client timeline (tests/rpc_test.cpp).
// Wire ids are the backend's sub_ids, so an id the backend never issued
// (say (1 << 32) + s) is never alive.
#ifndef DRT_RPC_SERVICE_H
#define DRT_RPC_SERVICE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/backends.h"
#include "rpc/event_loop.h"
#include "rpc/wire.h"

namespace drt::rpc {

struct service_config {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read port()).
  std::uint16_t port = 0;
  /// Configuration of the hosted overlay (workspace, summaries, net).
  engine::overlay_backend_config backend{};
  /// Wall-clock stabilizer cadence: every period the daemon runs one
  /// overlay stabilization round (a timer-wheel periodic).  0 disables
  /// it — required for digest-parity runs, where only client operations
  /// may generate overlay traffic.
  std::uint32_t stabilize_every_ms = 0;
  /// Diagnostics/CI: run the event loop on poll(2) instead of epoll.
  bool force_poll = false;
  /// A connection whose outbound buffer exceeds this is dropped as a
  /// dead-slow consumer (its subscriptions leave with it).
  std::size_t max_write_buffer = 4u << 20;
};

class service {
 public:
  explicit service(service_config config = {});
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// The bound port — valid immediately after construction, so a client
  /// thread can connect while (or before) run() starts.
  std::uint16_t port() const { return port_; }

  /// Serve until stop(); call from the daemon thread.
  void run();
  /// Thread- and signal-safe shutdown request.
  void stop() { loop_.stop(); }

  struct counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t events_pushed = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t disconnect_unsubscribes = 0;
    std::uint64_t stabilize_rounds = 0;
    /// Wall-clock stabilizer ticks skipped because the hosted overlay's
    /// dirty backlog was empty (0 at sweep_stride 1; see service.cpp).
    std::uint64_t stabilize_skipped = 0;
  };
  /// Direct counter access — loop-thread data, so only read it before
  /// run() starts or after it returned.  The old "never while serving"
  /// restriction is lifted by stats_snapshot(), which is safe from any
  /// thread at any time.
  const counters& stats() const { return stats_; }

  /// Thread-safe counter snapshot (DESIGN.md §12): while the daemon is
  /// serving, the read is marshalled onto the loop thread via post() and
  /// this call blocks until it executes; when the loop is idle the
  /// counters are read directly.  Callable from any thread at any time.
  counters stats_snapshot();

  /// Thread-safe Prometheus text exposition of the daemon's live state:
  /// service counters, hosted-overlay shape, and flight-recorder totals.
  /// Same marshalling discipline as stats_snapshot().  This is exactly
  /// the body an HTTP `GET /metrics` on the service port returns.
  std::string metrics_text();

  /// The hosted one-shard overlay backend; same thread-ownership rule as
  /// stats().
  engine::drtree_backend& backend() { return be_; }

 private:
  struct connection {
    int fd = -1;
    std::vector<std::byte> rbuf;
    std::vector<std::byte> wbuf;
    std::vector<engine::sub_id> subs;  ///< owned subscriptions
    /// Marked instead of closed inline: handlers hold references into
    /// conns_, so teardown happens in reap() between frames.
    bool dead = false;
    /// Sniffed as a plaintext HTTP client ("GET " prefix): the
    /// connection serves one /metrics response and closes.
    bool http = false;
    /// Close once wbuf fully drains (HTTP/1.0 response semantics).
    bool close_when_drained = false;
    /// The exposition snapshot a paged stats read walks; regenerated on
    /// every offset-0 request so a multi-frame read stays consistent.
    std::string stats_cache;
  };

  void on_accept();
  void on_conn_event(int fd, std::uint32_t events);
  /// Decode-and-handle loop over a connection's read buffer; false when
  /// the connection died (and was cleaned up) underneath it.
  bool drain_frames(connection& conn);
  void handle_frame(connection& conn, const frame_view& frame);

  void handle_subscribe(connection& conn, const frame_view& frame);
  void handle_unsubscribe(connection& conn, const frame_view& frame);
  void handle_publish(connection& conn, const frame_view& frame);
  void handle_publish_batch(connection& conn, const frame_view& frame);
  /// The drain-and-reply both publish frames share: publish `values` from
  /// `publisher` as one batch, push each delivery to its subscriber and
  /// answer `seq` with the summed report (ok = 0 unless `publisher` is a
  /// live subscription owned by `conn`).
  void publish_and_reply(connection& conn, std::uint32_t seq,
                         std::uint64_t publisher, const spatial::pt* values,
                         std::size_t n);
  void handle_stat(connection& conn, const frame_view& frame);
  void handle_active(connection& conn, const frame_view& frame);
  void handle_stats(connection& conn, const frame_view& frame);

  /// Serve a sniffed HTTP connection from its read buffer; responds to
  /// `GET /metrics` with the Prometheus exposition and closes.
  void handle_http(connection& conn);

  /// The Prometheus text exposition; loop-thread only (reads the overlay).
  std::string build_exposition();

  /// Run `fn` where it is safe to touch loop-thread state: posted to the
  /// loop (blocking until done) while serving, called directly otherwise.
  void run_on_loop(std::function<void()> fn);

  /// Fan the delivered event out to the connections owning the
  /// receiving subscriptions.
  void push_deliveries(const overlay::publish_result& result,
                       std::uint64_t publisher, const spatial::pt& value);

  void send_bytes(connection& conn, frame_type type, std::uint32_t seq,
                  const void* body, std::size_t body_bytes);
  void send_error(connection& conn, std::uint32_t seq, wire_errc code);
  /// Write as much of conn.wbuf as the socket accepts; keeps kWritable
  /// interest while a residue remains.  Marks the connection dead on a
  /// hard socket error.
  void flush(connection& conn);

  /// Close-and-unsubscribe every connection marked dead.
  void reap();
  void close_connection(int fd);

  service_config config_;
  event_loop loop_;
  engine::drtree_backend be_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::unordered_map<int, connection> conns_;
  /// Subscription owner index: sub id -> owning connection fd.
  std::unordered_map<engine::sub_id, int> owners_;
  counters stats_;
  std::atomic<bool> serving_{false};  ///< run() is inside loop_.run()
  std::uint64_t stabilize_tick_ = 0;  ///< wall-clock stabilizer periods seen
  std::vector<std::byte> scratch_;  ///< frame-encode scratch
  std::vector<int> scratch_fds_;    ///< reap() collection scratch
};

}  // namespace drt::rpc

#endif  // DRT_RPC_SERVICE_H
