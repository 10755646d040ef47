#include "rpc/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <utility>

#include "util/expect.h"

namespace drt::rpc {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DRT_ENSURE(flags >= 0);
  DRT_ENSURE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

event_loop::event_loop() {
  DRT_ENSURE(::pipe(wake_fds_) == 0);
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
  epoll_fd_ = ::epoll_create1(0);
  DRT_ENSURE(epoll_fd_ >= 0);
  // The self-pipe is a regular watch with no callback: draining it is
  // the dispatch path's job, the wakeup itself is the point.
  watch(wake_fds_[0], kReadable, [this](std::uint32_t) {
    char buf[64];
    while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
    }
  });
}

event_loop::~event_loop() {
  ::close(epoll_fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void event_loop::arm(int fd, std::uint32_t interest, int op) {
  struct epoll_event ev = {};
  ev.data.fd = fd;
  if ((interest & kReadable) != 0) ev.events |= EPOLLIN;
  if ((interest & kWritable) != 0) ev.events |= EPOLLOUT;
  DRT_ENSURE(::epoll_ctl(epoll_fd_, op, fd, &ev) == 0);
}

void event_loop::watch(int fd, std::uint32_t interest, io_fn fn) {
  DRT_EXPECT(fd >= 0);
  DRT_EXPECT(fn != nullptr);
  const bool add = watches_.find(fd) == watches_.end();
  auto& w = watches_[fd];
  w.interest = interest;
  w.fn = std::move(fn);
  arm(fd, interest, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD);
}

void event_loop::set_interest(int fd, std::uint32_t interest) {
  auto it = watches_.find(fd);
  DRT_EXPECT(it != watches_.end());
  if (it->second.interest == interest) return;
  it->second.interest = interest;
  arm(fd, interest, EPOLL_CTL_MOD);
}

void event_loop::unwatch(int fd) {
  auto it = watches_.find(fd);
  if (it == watches_.end()) return;
  watches_.erase(it);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void event_loop::stop() {
  stop_.store(true, std::memory_order_release);
  // write(2) is async-signal-safe, so drtd's SIGINT handler may call
  // stop() directly.
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], "s", 1);
}

std::size_t event_loop::run_once(int max_wait_ms) {
  struct epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, max_wait_ms);
  std::size_t work = 0;
  for (int i = 0; i < n; ++i) {
    std::uint32_t mask = 0;
    if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      mask |= kReadable;
    }
    if ((events[i].events & EPOLLOUT) != 0) mask |= kWritable;
    // Re-validate per event: an earlier callback in this batch may have
    // unwatched the fd.  If it also opened a new fd that reused the
    // number, the stale readiness delivered here is harmless — fds are
    // non-blocking and callbacks must tolerate EAGAIN.
    auto it = watches_.find(events[i].data.fd);
    if (it == watches_.end()) continue;
    mask &= it->second.interest | kReadable;
    if (mask == 0) continue;
    it->second.fn(mask);
    ++work;
  }
  return work;
}

void event_loop::run() {
  while (!stopped()) {
    run_once(-1);
  }
}

}  // namespace drt::rpc
