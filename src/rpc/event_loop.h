// Single-threaded readiness event loop for the service mode
// (DESIGN.md §10), on epoll, so service mode needs Linux.
//
// This is the async substrate the daemon runs on instead of the
// simulator's virtual clock: fd readiness callbacks, nothing else.  It
// keeps no timers: a caller with a deadline passes the time left to
// run_once() as its wait, as service::run does for the stabilizer.
// Everything runs on the thread inside run()/run_once(); the one
// cross-thread entry point is stop(), an atomic flag plus a self-pipe
// write that wakes the loop.
#ifndef DRT_RPC_EVENT_LOOP_H
#define DRT_RPC_EVENT_LOOP_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>

namespace drt::rpc {

class event_loop {
 public:
  static constexpr std::uint32_t kReadable = 1u << 0;
  static constexpr std::uint32_t kWritable = 1u << 1;

  /// Readiness callback; the mask is kReadable/kWritable bits (errors
  /// and hangups surface as kReadable so the read() observes them).
  using io_fn = std::function<void(std::uint32_t)>;

  event_loop();
  ~event_loop();

  event_loop(const event_loop&) = delete;
  event_loop& operator=(const event_loop&) = delete;

  // ------------------------------------------------------------- io fds
  /// Register `fd` (must be non-blocking) for the interest bits.  One
  /// watch per fd; re-watching an fd replaces it.
  void watch(int fd, std::uint32_t interest, io_fn fn);
  void set_interest(int fd, std::uint32_t interest);
  /// Safe against the fd being in the current dispatch batch, and
  /// against the fd number being reused by a later watch.
  void unwatch(int fd);
  std::size_t watched() const { return watches_.size(); }

  // ----------------------------------------------------------- running
  /// Drive until stop().  One call at a time, from one thread.
  void run();
  /// One wait/dispatch iteration, waiting at most `max_wait_ms` (-1:
  /// until an fd is ready or a stop()).  Returns the number of callbacks
  /// run.
  std::size_t run_once(int max_wait_ms);
  /// Thread- and signal-safe: flags the loop and wakes it.
  void stop();
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

 private:
  struct watch_state {
    std::uint32_t interest = 0;
    io_fn fn;
  };

  void arm(int fd, std::uint32_t interest, int op);

  std::unordered_map<int, watch_state> watches_;

  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe; [0] read, [1] write

  std::atomic<bool> stop_{false};
};

}  // namespace drt::rpc

#endif  // DRT_RPC_EVENT_LOOP_H
