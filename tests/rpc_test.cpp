// Service-mode tests (DESIGN.md §10): the wire codec (round-trip + fuzz +
// malformed-input rejection), the epoll event loop, the drtd service
// against real localhost sockets (its wall-clock stabilizer and
// write-buffer cap included), and the engine::net_backend adapter —
// including the digest-parity guarantee: a churn-free timeline served
// over TCP must reproduce the drtree_backend's recorder digest bit for
// bit.  drtd's flag validation is tested by CTest cases next to its
// target (src/CMakeLists.txt).
//
// The soak test at the bottom is gated behind DRT_NET_SOAK=1 (CI runs it
// under ASan); everything else is tier-1, and CI also runs this suite
// under TSan.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/backends.h"
#include "engine/metrics.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "geometry/rect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/client.h"
#include "rpc/event_loop.h"
#include "rpc/net_backend.h"
#include "rpc/service.h"
#include "rpc/wire.h"
#include "util/rng.h"

namespace drt::rpc {
namespace {

using drt::geo::make_rect2;

// ============================================================ wire codec

template <typename T>
frame_view decode_one(const std::vector<std::byte>& buf, T& out) {
  frame_view f;
  std::size_t consumed = 0;
  EXPECT_EQ(try_decode(buf.data(), buf.size(), f, consumed),
            decode_status::ok);
  EXPECT_EQ(consumed, buf.size());
  EXPECT_TRUE(f.read(out));
  return f;
}

TEST(WireCodec, RoundTripsEveryRpcBody) {
  {
    subscribe_body in;
    in.filter = make_rect2(1, 2, 3, 4);
    std::vector<std::byte> buf;
    put_frame(buf, frame_type::subscribe, 7, in);
    subscribe_body out;
    const auto f = decode_one(buf, out);
    EXPECT_EQ(f.type, frame_type::subscribe);
    EXPECT_EQ(f.seq, 7u);
    EXPECT_EQ(std::memcmp(&in, &out, sizeof(in)), 0);
  }
  {
    report_body in;
    in.interested = 5;
    in.delivered = 4;
    in.false_positives = 1;
    in.false_negatives = 2;
    in.messages = 99;
    in.max_hops = 6;
    in.ok = 1;
    std::vector<std::byte> buf;
    put_frame(buf, frame_type::publish_report, 3, in);
    report_body out;
    decode_one(buf, out);
    EXPECT_EQ(std::memcmp(&in, &out, sizeof(in)), 0);
  }
  {
    stat_body in;
    in.population = 12;
    in.height = 3;
    in.avg_degree = 2.75;
    in.root = 4;
    in.legal = 1;
    std::vector<std::byte> buf;
    put_frame(buf, frame_type::stat_ok, 9, in);
    stat_body out;
    decode_one(buf, out);
    EXPECT_EQ(std::memcmp(&in, &out, sizeof(in)), 0);
  }
  {
    event_push_body in;
    in.sub = 17;
    in.ev.id = 40;
    in.ev.publisher = 3;
    in.ev.value = spatial::pt{{0.5, 0.25}};
    in.max_hops = 4;
    std::vector<std::byte> buf;
    put_frame(buf, frame_type::event_push, 0, in);
    event_push_body out;
    const auto f = decode_one(buf, out);
    EXPECT_EQ(f.seq, 0u);  // pushes are unsolicited
    EXPECT_EQ(std::memcmp(&in, &out, sizeof(in)), 0);
  }
  {
    // Payload-less frames (ping / stat requests).
    std::vector<std::byte> buf;
    put_frame(buf, frame_type::ping, 42);
    frame_view f;
    std::size_t consumed = 0;
    ASSERT_EQ(try_decode(buf.data(), buf.size(), f, consumed),
              decode_status::ok);
    EXPECT_EQ(f.type, frame_type::ping);
    EXPECT_EQ(f.size, 0u);
    EXPECT_EQ(consumed, sizeof(frame_header));
  }
}

TEST(WireCodec, FuzzRoundTripsPrefixEncodedBatchesAtEveryCount) {
  util::rng rng(0xba7c4u);
  for (std::size_t count = 0; count <= overlay::dr_batch_msg::kMaxEvents;
       ++count) {
    overlay::dr_batch_msg in{};
    in.kind = rng.chance(0.5) ? overlay::msg_kind::event_down
                              : overlay::msg_kind::event_up;
    in.count = static_cast<std::uint32_t>(count);
    in.h = static_cast<std::uint32_t>(rng.uniform_int(0, 31));
    in.hops_left = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
    in.hop = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
    for (std::size_t i = 0; i < count; ++i) {
      in.events[i].id = rng.next_u64();
      in.events[i].publisher = static_cast<spatial::peer_id>(rng.next_u64());
      in.events[i].value =
          spatial::pt{{rng.uniform_real(0, 1000), rng.uniform_real(0, 1000)}};
    }

    // Size-prefixed: a k-event batch travels as bytes_for(k) bytes.
    const std::size_t wire = overlay::dr_batch_msg::bytes_for(count);
    std::vector<std::byte> buf;
    put_frame(buf, frame_type::publish_batch, 1, in, wire);
    EXPECT_EQ(buf.size(), sizeof(frame_header) + wire);

    frame_view f;
    std::size_t consumed = 0;
    ASSERT_EQ(try_decode(buf.data(), buf.size(), f, consumed),
              decode_status::ok);
    overlay::dr_batch_msg out{};
    ASSERT_TRUE(read_batch(f, out)) << "count " << count;
    EXPECT_EQ(std::memcmp(&in, &out, wire), 0);
    // The decoded tail past `count` must be zeroed, never garbage.
    for (std::size_t i = count; i < overlay::dr_batch_msg::kMaxEvents; ++i) {
      EXPECT_EQ(out.events[i].id, 0u);
    }
  }
}

TEST(WireCodec, EveryTruncatedPrefixAsksForMoreBytes) {
  publish_body body;
  body.publisher = 3;
  body.value = spatial::pt{{10, 20}};
  std::vector<std::byte> buf;
  put_frame(buf, frame_type::publish, 5, body);

  for (std::size_t len = 0; len < buf.size(); ++len) {
    frame_view f;
    std::size_t consumed = 1;
    EXPECT_EQ(try_decode(buf.data(), len, f, consumed),
              decode_status::need_more)
        << "prefix " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(WireCodec, RejectsBadMagicVersionAndLength) {
  std::vector<std::byte> buf;
  put_frame(buf, frame_type::ping, 1);

  auto corrupt = buf;
  corrupt[0] = std::byte{0xff};
  frame_view f;
  std::size_t consumed = 0;
  EXPECT_EQ(try_decode(corrupt.data(), corrupt.size(), f, consumed),
            decode_status::bad_magic);

  corrupt = buf;
  const std::uint16_t vers = kWireVersion + 1;
  std::memcpy(corrupt.data() + offsetof(frame_header, version), &vers,
              sizeof(vers));
  EXPECT_EQ(try_decode(corrupt.data(), corrupt.size(), f, consumed),
            decode_status::bad_version);

  corrupt = buf;
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(corrupt.data() + offsetof(frame_header, length), &huge,
              sizeof(huge));
  EXPECT_EQ(try_decode(corrupt.data(), corrupt.size(), f, consumed),
            decode_status::bad_length);
}

TEST(WireCodec, RejectsBatchCountSizeMismatch) {
  overlay::dr_batch_msg b{};
  b.count = 6;  // lies: only 5 events' worth of bytes on the wire
  std::vector<std::byte> buf;
  put_frame(buf, frame_type::publish_batch, 1, b,
            overlay::dr_batch_msg::bytes_for(5));
  frame_view f;
  std::size_t consumed = 0;
  ASSERT_EQ(try_decode(buf.data(), buf.size(), f, consumed),
            decode_status::ok);
  overlay::dr_batch_msg out{};
  EXPECT_FALSE(read_batch(f, out));

  // A frame too short to even hold the batch header is rejected outright.
  std::vector<std::byte> tiny;
  put_frame_bytes(tiny, frame_type::publish_batch, 1, &b, 4);
  ASSERT_EQ(try_decode(tiny.data(), tiny.size(), f, consumed),
            decode_status::ok);
  EXPECT_FALSE(read_batch(f, out));
}

TEST(WireCodec, ChainedFramesDecodeSequentially) {
  std::vector<std::byte> buf;
  put_frame(buf, frame_type::ping, 1);
  sub_body sub;
  sub.sub = 77;
  put_frame(buf, frame_type::unsubscribe, 2, sub);
  bool_body yes;
  yes.value = 1;
  put_frame(buf, frame_type::unsubscribe_ok, 2, yes);

  const std::byte* cursor = buf.data();
  std::size_t left = buf.size();
  std::vector<frame_type> seen;
  frame_view f;
  std::size_t consumed = 0;
  while (try_decode(cursor, left, f, consumed) == decode_status::ok) {
    seen.push_back(f.type);
    cursor += consumed;
    left -= consumed;
  }
  EXPECT_EQ(left, 0u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], frame_type::ping);
  EXPECT_EQ(seen[1], frame_type::unsubscribe);
  EXPECT_EQ(seen[2], frame_type::unsubscribe_ok);
}

TEST(WireCodec, ExactSizeReadRejectsWrongPayloadSize) {
  sub_body sub;
  sub.sub = 1;
  std::vector<std::byte> buf;
  put_frame(buf, frame_type::subscribe_ok, 1, sub);
  frame_view f;
  std::size_t consumed = 0;
  ASSERT_EQ(try_decode(buf.data(), buf.size(), f, consumed),
            decode_status::ok);
  report_body wrong;  // sizeof(report_body) != sizeof(sub_body)
  EXPECT_FALSE(f.read(wrong));
}

TEST(WireCodecDeathTest, OversizedPayloadIsAnEncoderContractViolation) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::byte> buf;
  const std::vector<std::byte> big(kMaxPayloadBytes + 1);
  EXPECT_DEATH(
      put_frame_bytes(buf, frame_type::publish_batch, 1, big.data(),
                      big.size()),
      "");
}

// ============================================================ event loop

TEST(EventLoop, StopFromAnotherThreadWakesABlockedLoop) {
  event_loop loop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    loop.stop();
  });
  loop.run();  // blocked in epoll_wait until the stopper's wakeup
  stopper.join();
  EXPECT_TRUE(loop.stopped());
}

TEST(EventLoop, DispatchesPipeReadability) {
  event_loop loop;
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  char received = 0;
  loop.watch(fds[0], event_loop::kReadable, [&](std::uint32_t mask) {
    EXPECT_NE(mask & event_loop::kReadable, 0u);
    ASSERT_EQ(::read(fds[0], &received, 1), 1);
    loop.stop();
  });
  // watched() includes the loop's internal self-pipe wakeup watch.
  EXPECT_EQ(loop.watched(), 2u);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.run();
  EXPECT_EQ(received, 'x');
  loop.unwatch(fds[0]);
  EXPECT_EQ(loop.watched(), 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, CallbackThatUnwatchesALaterReadyFdSuppressesIt) {
  // Both pipes are readable before the wait, so one epoll_wait returns
  // both; whichever callback runs first unwatches and closes the other
  // pipe, whose readiness is already in the batch and must be dropped.
  event_loop loop;
  int a[2] = {-1, -1};
  int b[2] = {-1, -1};
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  int calls = 0;
  int closed = -1;
  auto watch_closing = [&](int own, int other) {
    loop.watch(own, event_loop::kReadable, [&, other](std::uint32_t) {
      ++calls;
      loop.unwatch(other);
      ::close(other);
      closed = other;
    });
  };
  watch_closing(a[0], b[0]);
  watch_closing(b[0], a[0]);
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "x", 1), 1);
  EXPECT_EQ(loop.run_once(0), 1u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(loop.watched(), 2u);  // the survivor and the self-pipe
  const int survivor = closed == a[0] ? b[0] : a[0];
  loop.unwatch(survivor);
  ::close(survivor);
  ::close(a[1]);
  ::close(b[1]);
}

// ======================================================= service + client

engine::overlay_backend_config small_config(std::uint64_t seed) {
  engine::overlay_backend_config bc;
  bc.net.seed = seed;
  return bc;
}

/// A service on its own thread, stopped and joined at scope exit.
class service_fixture {
 public:
  explicit service_fixture(service_config config = {})
      : service_(std::move(config)),
        thread_([this] { service_.run(); }) {}
  ~service_fixture() { stop(); }
  /// Stop the daemon and join its thread; after this the hosted backend
  /// may be read from the test thread.
  void stop() {
    service_.stop();
    if (thread_.joinable()) thread_.join();
  }
  service& get() { return service_; }
  std::uint16_t port() const { return service_.port(); }

 private:
  service service_;
  std::thread thread_;
};

/// Poll the daemon (through its own protocol) until the population
/// reaches `want` — EOF processing is asynchronous to the closing side.
void await_population(std::uint16_t port, std::uint64_t want) {
  client monitor(port);
  ASSERT_TRUE(monitor.ok());
  for (int i = 0; i < 2000 && monitor.stat().population != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(monitor.stat().population, want);
}

/// A bare TCP connection to the daemon, for bytes rpc::client never
/// sends; -1 on failure.  Reads time out after 10 s rather than hang.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Send one plain-HTTP request on a fresh connection and read the answer
/// to EOF: the daemon closes after one response.
std::string http_get(std::uint16_t port, const char* request) {
  const int fd = connect_raw(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  EXPECT_GT(::send(fd, request, std::strlen(request), 0), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const auto n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// The body of the daemon's `GET /metrics` answer: its exposition text.
std::string scrape_metrics(std::uint16_t port) {
  const auto response = http_get(port, "GET /metrics HTTP/1.0\r\n\r\n");
  const auto body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) return {};
  return response.substr(body_at + 4);
}

/// Block until one whole frame has arrived on `fd`; `out` borrows `buf`.
/// False on EOF, timeout, a bad header, or bytes past that one frame.
bool read_frame(int fd, std::vector<std::byte>& buf, frame_view& out) {
  buf.clear();
  for (;;) {
    std::size_t consumed = 0;
    const auto status = try_decode(buf.data(), buf.size(), out, consumed);
    if (status == decode_status::ok) return consumed == buf.size();
    if (status != decode_status::need_more) return false;
    std::byte chunk[512];
    const auto n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

TEST(Service, SubscribePublishUnsubscribeRoundTrip) {
  service_config cfg;
  cfg.backend = small_config(5);
  service_fixture fx(cfg);

  client c(fx.port());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.ping());

  const auto a = c.subscribe(make_rect2(0, 0, 500, 500));
  const auto b = c.subscribe(make_rect2(250, 250, 750, 750));
  ASSERT_NE(a, static_cast<std::uint64_t>(engine::kNoSub));
  ASSERT_NE(b, static_cast<std::uint64_t>(engine::kNoSub));
  EXPECT_TRUE(c.alive(a));
  EXPECT_TRUE(c.alive(b));
  EXPECT_EQ(c.stat().population, 2u);

  const auto ids = c.active();
  EXPECT_EQ(ids.size(), 2u);

  // (300, 300) is inside both filters.
  const auto report = c.publish(a, spatial::pt{{300, 300}});
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.interested, 2u);
  EXPECT_EQ(report.delivered, 2u);
  EXPECT_EQ(report.false_negatives, 0u);
  // Both receivers are ours, so both pushes land on this connection.
  EXPECT_TRUE(c.ping());
  EXPECT_EQ(c.events().size(), 2u);

  EXPECT_TRUE(c.unsubscribe(a));
  EXPECT_FALSE(c.alive(a));
  EXPECT_FALSE(c.unsubscribe(a));  // second time: unknown
  EXPECT_EQ(c.stat().population, 1u);
}

TEST(Service, PublishBatchAggregatesChunksTransparently) {
  service_config cfg;
  cfg.backend = small_config(6);
  service_fixture fx(cfg);
  client c(fx.port());
  ASSERT_TRUE(c.ok());

  const auto s = c.subscribe(make_rect2(0, 0, 1000, 1000));
  ASSERT_TRUE(c.alive(s));

  // 100 events forces two wire chunks (64 + 36).
  std::vector<spatial::pt> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(spatial::pt{{static_cast<double>(i % 37) * 10.0, 500}});
  }
  const auto report = c.publish_batch(s, values.data(), values.size());
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.interested, 100u);
  EXPECT_EQ(report.delivered, 100u);
  EXPECT_EQ(report.false_negatives, 0u);
  EXPECT_TRUE(c.ping());
  EXPECT_EQ(c.events().size(), 100u);
}

TEST(Service, AbruptDisconnectIsTheChurnPrimitive) {
  service_config cfg;
  cfg.backend = small_config(7);
  service_fixture fx(cfg);

  client keeper(fx.port());
  ASSERT_TRUE(keeper.ok());
  const auto kept = keeper.subscribe(make_rect2(0, 0, 100, 100));
  ASSERT_TRUE(keeper.alive(kept));

  {
    client vanishing(fx.port());
    ASSERT_TRUE(vanishing.ok());
    ASSERT_NE(vanishing.subscribe(make_rect2(0, 0, 50, 50)),
              static_cast<std::uint64_t>(engine::kNoSub));
    ASSERT_NE(vanishing.subscribe(make_rect2(50, 50, 100, 100)),
              static_cast<std::uint64_t>(engine::kNoSub));
    ASSERT_EQ(vanishing.stat().population, 3u);
  }  // closes without unsubscribing

  await_population(fx.port(), 1);
  EXPECT_TRUE(keeper.alive(kept));
  EXPECT_GE(fx.get().stats_snapshot().disconnect_unsubscribes, 2u);
}

TEST(Service, NanFilterIsRefusedAndTheOverlayStaysLegal) {
  // A NaN bound would make the hosted overlay illegal for good (NaN
  // equals no MBR), and an empty box (any lo > hi) matches no event while
  // its finite bounds would widen every ancestor's MBR.  The daemon
  // answers both with bad_request and registers nothing.
  service_config cfg;
  cfg.backend = small_config(15);
  cfg.stabilize_every_ms = 5;
  service_fixture fx(cfg);

  client c(fx.port());
  ASSERT_TRUE(c.ok());
  for (int i = 0; i < 30; ++i) {
    const double lo = 30.0 * i;
    ASSERT_NE(c.subscribe(make_rect2(lo, 1000 - lo - 60, lo + 60, 1000 - lo)),
              static_cast<std::uint64_t>(engine::kNoSub));
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const spatial::box refused[] = {
      make_rect2(nan, 10, 20, 20),
      make_rect2(20, 10, 10, 20),          // x inverted
      make_rect2(10, 20, 20, 10),          // y inverted
      make_rect2(2000, 2000, 1500, 1500),  // both
      spatial::box::empty()};
  for (std::size_t i = 0; i < std::size(refused); ++i) {
    EXPECT_EQ(c.subscribe(refused[i]),
              static_cast<std::uint64_t>(engine::kNoSub))
        << i;
    EXPECT_TRUE(c.ping()) << i;  // the connection survives the refusal
  }
  EXPECT_EQ(c.stat().population, 30u);

  const auto rounds = fx.get().stats_snapshot().stabilize_rounds;
  for (int i = 0; i < 1500; ++i) {
    if (fx.get().stats_snapshot().stabilize_rounds >= rounds + 20 &&
        c.stat().legal) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(fx.get().stats_snapshot().stabilize_rounds, rounds + 20);
  EXPECT_TRUE(c.stat().legal);
}

TEST(Service, ForeignSubscriptionOperationsAreRejected) {
  service_config cfg;
  cfg.backend = small_config(8);
  service_fixture fx(cfg);

  client owner(fx.port());
  client intruder(fx.port());
  ASSERT_TRUE(owner.ok());
  ASSERT_TRUE(intruder.ok());

  const auto s = owner.subscribe(make_rect2(0, 0, 100, 100));
  ASSERT_TRUE(owner.alive(s));

  // The intruder can observe the subscription but not act as it.
  EXPECT_TRUE(intruder.alive(s));
  EXPECT_FALSE(intruder.unsubscribe(s));
  EXPECT_EQ(intruder.publish(s, spatial::pt{{10, 10}}).ok, 0u);
  EXPECT_EQ(intruder.publish(999999, spatial::pt{{10, 10}}).ok, 0u);
  // A wide id is not a 32-bit peer id: (1 << 32) + s names nothing.
  EXPECT_FALSE(intruder.alive(s + (std::uint64_t{1} << 32)));

  // The owner is unaffected.
  EXPECT_TRUE(owner.alive(s));
  EXPECT_TRUE(owner.unsubscribe(s));
}

TEST(Service, GarbageBytesCloseTheConnection) {
  service_config cfg;
  cfg.backend = small_config(9);
  service_fixture fx(cfg);

  const int fd = connect_raw(fx.port());
  ASSERT_GE(fd, 0);
  // Not a wire frame and not an HTTP request (GET is sniffed and served
  // since the observability PR — see HttpGetMetricsServesPrometheus).
  const char garbage[] = "SSH-2.0-OpenSSH_9.6\r\nnot a drt frame at all";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);
  char buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // EOF: daemon closed us
  ::close(fd);

  // The daemon itself shrugged it off and keeps serving.
  client c(fx.port());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.ping());
  EXPECT_GE(fx.get().stats_snapshot().protocol_errors, 1u);
}

TEST(Service, SubscriberThatNeverReadsIsDroppedAtTheWriteCap) {
  // The cap holds for every connection a request writes to, not only the
  // requester's: pushes to a subscriber that stopped reading pile up in
  // its buffer until the daemon drops it, while the publisher keeps
  // getting its replies.
  service_config cfg;
  cfg.backend = small_config(13);
  cfg.max_write_buffer = 64u << 10;
  service_fixture fx(cfg);

  client publisher(fx.port());
  ASSERT_TRUE(publisher.ok());
  const auto pub = publisher.subscribe(make_rect2(900, 900, 1000, 1000));
  ASSERT_TRUE(publisher.alive(pub));

  client sink(fx.port());  // subscribes, then never reads again
  ASSERT_TRUE(sink.ok());
  constexpr int kSinkSubs = 8;
  for (int i = 0; i < kSinkSubs; ++i) {
    ASSERT_NE(sink.subscribe(make_rect2(0, 0, 500, 500)),
              static_cast<std::uint64_t>(engine::kNoSub));
  }

  // Each batch pushes 64 x 8 frames at the sink.  The bound leaves room
  // for the kernel's socket buffers to fill before the daemon's does.
  const auto before = fx.get().stats_snapshot();
  auto now = before;
  const std::vector<spatial::pt> values(64, spatial::pt{{100, 100}});
  for (int i = 0;
       i < 1000 && now.connections_closed == before.connections_closed;
       ++i) {
    ASSERT_EQ(publisher.publish_batch(pub, values.data(), values.size()).ok,
              1u);
    now = fx.get().stats_snapshot();
  }
  EXPECT_EQ(now.connections_closed, before.connections_closed + 1);
  EXPECT_EQ(now.disconnect_unsubscribes,
            before.disconnect_unsubscribes + kSinkSubs);
  EXPECT_EQ(publisher.publish(pub, spatial::pt{{100, 100}}).ok, 1u);
  EXPECT_EQ(publisher.stat().population, 1u);
}

TEST(Service, ManyConcurrentClients) {
  service_config cfg;
  cfg.backend = small_config(10);
  service_fixture fx(cfg);

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      client c(fx.port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      const double lo = t * 100.0;
      const auto s = c.subscribe(make_rect2(lo, lo, lo + 100, lo + 100));
      if (s == static_cast<std::uint64_t>(engine::kNoSub)) {
        ++failures;
        return;
      }
      for (int i = 0; i < 20; ++i) {
        const auto r = c.publish(s, spatial::pt{{lo + 50, lo + 50}});
        if (r.ok != 1 || r.false_negatives != 0 || r.interested == 0) {
          ++failures;
          return;
        }
      }
      if (!c.unsubscribe(s)) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  await_population(fx.port(), 0);
}

TEST(Service, WallClockStabilizerRunsRounds) {
  // Serves eight subscriptions until 3 * stride rounds ran (same budget
  // for every case), then stops the daemon; the structure must stay
  // legal under background stabilization.  Returns the daemon's counters
  // and the hosted overlay's stabilize scheduling stats.
  auto serve = [](std::size_t stride) {
    service_config cfg;
    cfg.backend = small_config(12);
    cfg.backend.dr.sweep_stride = stride;
    cfg.stabilize_every_ms = 5;
    service_fixture fx(cfg);

    client c(fx.port());
    EXPECT_TRUE(c.ok());
    for (int i = 0; i < 8; ++i) {
      EXPECT_NE(c.subscribe(make_rect2(i * 100, i * 100, i * 100 + 80,
                                       i * 100 + 80)),
                static_cast<std::uint64_t>(engine::kNoSub));
    }
    for (int i = 0;
         i < 1000 && fx.get().stats_snapshot().stabilize_rounds < 3 * stride;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(c.stat().legal);
    fx.stop();
    EXPECT_TRUE(fx.get().backend().legal());
    return std::pair{fx.get().stats_snapshot(),
                     fx.get().backend().overlay().stab_stats()};
  };

  // The default stride is the paper's schedule: every peer passes every
  // round.
  const auto [every, every_stab] =
      serve(engine::overlay_backend_config{}.dr.sweep_stride);
  EXPECT_GE(every.stabilize_rounds, 3u);
  EXPECT_EQ(every_stab.skipped, 0u);

  // At stride 16 every tick still runs a round; the overlay's tick chain
  // lets each clean non-root peer skip the ticks between its background
  // sweeps.
  const auto [sparse, sparse_stab] = serve(16);
  EXPECT_GE(sparse.stabilize_rounds, 3u * 16);
  EXPECT_GT(sparse_stab.skipped, 0u);
}

TEST(Service, WallClockStabilizerRepairsSilentDamageWithinThreeStrides) {
  // At sweep_stride K a clean non-root peer passes once every K rounds,
  // on its background tick.  Damage that sets no dirty mark, at the peer
  // whose background tick comes last, waits K rounds for that tick; the
  // ancestors that folded the damaged MBR into their unions meanwhile
  // pass again within K more.  Every wall-clock tick runs a round, so
  // the overlay is legal again within 3K ticks; a daemon that ran rounds
  // on every K-th tick only while the backlog was empty needed about
  // K * K.
  constexpr std::size_t kStride = 8;
  constexpr int kPeriodMs = 10;
  service_config cfg;
  cfg.backend = small_config(3);
  cfg.backend.dr.sweep_stride = kStride;
  cfg.backend.dr.trace = obs::trace_mode::ring;
  cfg.backend.dr.trace_dump = false;
  cfg.stabilize_every_ms = kPeriodMs;
  service svc(cfg);
  auto& be = svc.backend();
  auto& ov = be.overlay();
  engine::scenario_runner runner(be);
  runner.populate(128);
  ASSERT_GE(runner.converge(200), 0);
  for (std::size_t r = 0; r < 2 * kStride; ++r) be.step_round();
  ASSERT_EQ(ov.dirty_pending(), 0u);

  // One window of K rounds, in which every non-root peer passes once;
  // the victim is the one that passes last.
  const auto period = ov.config().stabilize_period;
  const auto t0 = ov.sim().now();
  for (std::size_t r = 0; r < kStride; ++r) be.step_round();
  spatial::peer_id victim = spatial::kNoPeer;
  double victim_pass = t0;
  for (const auto& rec : ov.trace()->snapshot()) {
    const auto p = static_cast<spatial::peer_id>(rec.peer);
    if (rec.kind != static_cast<std::uint16_t>(obs::trace_kind::stab_begin) ||
        rec.ts <= t0 || ov.peer(p).is_root()) {
      continue;
    }
    if (rec.ts > victim_pass) {
      victim = p;
      victim_pass = rec.ts;
    }
  }
  ASSERT_NE(victim, spatial::kNoPeer);
  ASSERT_GT(victim_pass, t0 + (kStride - 1) * period);

  // Silent damage: the leaf MBR no longer equals the filter, and no mark
  // tells the scheduler.
  const auto f = ov.peer(victim).filter();
  ov.peer(victim).inst(0).mbr =
      make_rect2(f.lo[0], f.lo[1], f.hi[0] + 50, f.hi[1] + 50);
  ASSERT_EQ(ov.dirty_pending(), 0u);
  ASSERT_FALSE(be.legal());

  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  std::thread loop([&svc] { svc.run(); });
  client c(svc.port());
  EXPECT_TRUE(c.ok());
  bool legal = false;
  auto elapsed = clock::duration::zero();
  for (int i = 0; i < 2000 && !legal; ++i) {
    legal = c.stat().legal != 0;
    elapsed = clock::now() - start;
    if (!legal) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  svc.stop();
  loop.join();
  ASSERT_TRUE(legal);
  const auto ticks = elapsed / std::chrono::milliseconds(kPeriodMs);
  EXPECT_LT(ticks, 3 * static_cast<std::int64_t>(kStride))
      << "legal only after " << ticks << " ticks ("
      << svc.stats_snapshot().stabilize_rounds << " rounds)";
}

// ========================================================= introspection

TEST(Service, LiveStatsMidChurn) {
  // The observability contract (DESIGN.md §12): a serving daemon answers
  // GET /metrics while clients churn, the text is Prometheus-parseable,
  // counters are monotonic across reads, and the overlay gauges reflect
  // the population actually subscribed.
  service_config cfg;
  cfg.backend = small_config(31);
  cfg.backend.dr.trace = obs::trace_mode::ring;
  cfg.stabilize_every_ms = 5;
  service_fixture fx(cfg);

  client owner(fx.port());
  ASSERT_TRUE(owner.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_NE(owner.subscribe(make_rect2(i * 10, i * 10, i * 10 + 80,
                                         i * 10 + 80)),
              static_cast<std::uint64_t>(engine::kNoSub));
  }

  // First read lands mid-churn: ephemeral clients join and vanish while
  // the daemon answers the scrape.
  std::thread churn([port = fx.port()] {
    for (int round = 0; round < 6; ++round) {
      client ephemeral(port);
      if (!ephemeral.ok()) continue;
      ephemeral.subscribe(make_rect2(0, 0, 30, 30));
      ephemeral.subscribe(make_rect2(40, 40, 90, 90));
      // Destructor = abrupt disconnect, the churn primitive.
    }
  });
  const auto first_text = scrape_metrics(fx.port());
  churn.join();
  ASSERT_FALSE(first_text.empty());
  const auto first = obs::parse_exposition(first_text);
  ASSERT_NE(first.count("drtd_frames_in_total"), 0u);
  ASSERT_NE(first.count("drtd_overlay_population"), 0u);
  EXPECT_GT(first.at("drtd_frames_in_total"), 0.0);

  // After the churn drains, the gauges settle on the surviving owner
  // subscriptions and the tree has real height.
  await_population(fx.port(), 12);
  const auto second = obs::parse_exposition(scrape_metrics(fx.port()));
  EXPECT_DOUBLE_EQ(second.at("drtd_overlay_population"), 12.0);
  EXPECT_GE(second.at("drtd_overlay_height"), 1.0);
  EXPECT_GT(second.at("drtd_trace_records_total"), 0.0);
  // Monotonic counters never move backwards between reads.
  for (const char* name :
       {"drtd_frames_in_total", "drtd_frames_out_total",
        "drtd_connections_accepted_total", "drtd_stabilize_rounds_total"}) {
    ASSERT_NE(second.count(name), 0u) << name;
    EXPECT_GE(second.at(name), first.at(name)) << name;
  }
}

TEST(Service, StatsSnapshotIsSafeFromAnyThreadWhileServing) {
  // Two threads that are neither the loop nor wire clients read the
  // counters while sessions subscribe, publish and leave.  Each read is
  // a set of atomic loads of counts only the loop stores, so between one
  // thread's successive reads no field moves backwards (and under TSan
  // the loads race with nothing).
  service_config cfg;
  cfg.backend = small_config(32);
  cfg.stabilize_every_ms = 5;
  service_fixture fx(cfg);

  const auto fields = [](const service::counters& c) {
    return std::array<std::uint64_t, 8>{
        c.connections_accepted, c.connections_closed, c.frames_in,
        c.frames_out, c.events_pushed, c.protocol_errors,
        c.disconnect_unsubscribes, c.stabilize_rounds};
  };
  std::atomic<bool> done{false};
  std::atomic<int> backwards{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto last = fields(fx.get().stats_snapshot());
      while (!done.load(std::memory_order_acquire)) {
        const auto now = fields(fx.get().stats_snapshot());
        for (std::size_t f = 0; f < now.size(); ++f) {
          if (now[f] < last[f]) ++backwards;
        }
        last = now;
        ++reads;
      }
    });
  }

  // Each session publishes into its own filter, then half unsubscribe
  // and half vanish, the disconnect-churn path.
  constexpr int kSessions = 20;
  constexpr int kPublishes = 5;
  const auto churn = [&] {
    for (int session = 0; session < kSessions; ++session) {
      client c(fx.port());
      ASSERT_TRUE(c.ok());
      const double lo = 40.0 * session;
      const auto s = c.subscribe(make_rect2(lo, lo, lo + 100, lo + 100));
      ASSERT_NE(s, static_cast<std::uint64_t>(engine::kNoSub));
      for (int i = 0; i < kPublishes; ++i) {
        EXPECT_EQ(c.publish(s, spatial::pt{{lo + 50, lo + 50}}).ok, 1u);
      }
      if (session % 2 == 0) {
        EXPECT_TRUE(c.unsubscribe(s));
      }
    }
    await_population(fx.port(), 0);
  };
  churn();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(backwards.load(), 0);
  EXPECT_GT(reads.load(), 0);
  const auto last = fx.get().stats_snapshot();
  EXPECT_GE(last.connections_accepted, static_cast<std::uint64_t>(kSessions));
  EXPECT_GE(last.events_pushed,
            static_cast<std::uint64_t>(kSessions * kPublishes));
  EXPECT_EQ(last.disconnect_unsubscribes,
            static_cast<std::uint64_t>(kSessions / 2));
}

TEST(Service, HttpGetMetricsServesPrometheus) {
  service_config cfg;
  cfg.backend = small_config(33);
  service_fixture fx(cfg);

  client c(fx.port());
  ASSERT_TRUE(c.ok());
  ASSERT_NE(c.subscribe(make_rect2(0, 0, 200, 200)),
            static_cast<std::uint64_t>(engine::kNoSub));

  const auto ok =
      http_get(fx.port(), "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
  EXPECT_EQ(ok.compare(0, 15, "HTTP/1.0 200 OK"), 0) << ok;
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const auto body_at = ok.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const auto parsed = obs::parse_exposition(ok.substr(body_at + 4));
  ASSERT_NE(parsed.count("drtd_connections_accepted_total"), 0u);
  EXPECT_DOUBLE_EQ(parsed.at("drtd_overlay_population"), 1.0);

  const auto missing = http_get(fx.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(missing.compare(0, 12, "HTTP/1.0 404"), 0) << missing;

  // The wire protocol still works on the same port after HTTP traffic.
  EXPECT_TRUE(c.ping());
}

TEST(Service, RetiredAndUnknownFrameTypesAreUnsupported) {
  // The retired metrics-page request (24) with its old 8-byte body, the
  // retired peer-wire frame (40) with a dr_msg-sized body, and a type no
  // version defined (999) each get one error frame carrying `unsupported`
  // and the request's seq, and the connection keeps serving.
  service_config cfg;
  cfg.backend = small_config(34);
  service_fixture fx(cfg);
  const int fd = connect_raw(fx.port());
  ASSERT_GE(fd, 0);

  const std::byte zeros[sizeof(overlay::dr_msg)] = {};
  std::vector<std::byte> out, in;
  frame_view reply;
  std::uint32_t seq = 100;
  for (const auto& [type, bytes] :
       {std::pair<std::uint16_t, std::size_t>{24, 8},
        {40, sizeof(overlay::dr_msg)}, {999, 0}}) {
    out.clear();
    put_frame_bytes(out, static_cast<frame_type>(type), ++seq, zeros, bytes);
    ASSERT_EQ(::send(fd, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
    ASSERT_TRUE(read_frame(fd, in, reply)) << type;
    EXPECT_EQ(reply.type, frame_type::error) << type;
    EXPECT_EQ(reply.seq, seq) << type;
    error_body err;
    ASSERT_TRUE(reply.read(err)) << type;
    EXPECT_EQ(err.code, static_cast<std::uint32_t>(wire_errc::unsupported))
        << type;
  }

  out.clear();
  put_frame(out, frame_type::ping, ++seq);
  ASSERT_EQ(::send(fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));
  ASSERT_TRUE(read_frame(fd, in, reply));
  EXPECT_EQ(reply.type, frame_type::pong);
  EXPECT_EQ(reply.seq, seq);
  ::close(fd);
}

// ============================================================ net backend

TEST(NetBackend, CapabilitiesAreHonest) {
  service_config cfg;
  cfg.backend = small_config(13);
  engine::net_backend be(cfg);
  EXPECT_EQ(be.name(), "net");
  EXPECT_TRUE(be.can(engine::cap_unsubscribe));
  EXPECT_FALSE(be.can(engine::cap_crash));
  EXPECT_FALSE(be.can(engine::cap_restart));
  EXPECT_FALSE(be.can(engine::cap_corruption));
  EXPECT_FALSE(be.can(engine::cap_stabilize));
  EXPECT_FALSE(be.can(engine::cap_partition));
  EXPECT_FALSE(be.can(engine::cap_degrade));
}

TEST(NetBackend, ServesTheBackendInterfaceOverSockets) {
  service_config cfg;
  cfg.backend = small_config(14);
  engine::net_backend be(cfg);
  ASSERT_TRUE(be.connected());

  const auto a = be.subscribe(make_rect2(0, 0, 500, 500));
  const auto b = be.subscribe(make_rect2(400, 400, 600, 600));
  ASSERT_NE(a, engine::kNoSub);
  ASSERT_NE(b, engine::kNoSub);
  EXPECT_EQ(be.population(), 2u);
  EXPECT_TRUE(be.alive(a));
  EXPECT_TRUE(be.legal());
  EXPECT_EQ(be.active().size(), 2u);
  EXPECT_EQ(be.shape().population, 2u);

  const auto r = be.publish(a, spatial::pt{{450, 450}});
  EXPECT_EQ(r.interested, 2u);
  EXPECT_EQ(r.delivered, 2u);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_GT(be.counters().messages, 0u);

  const spatial::pt pts[3] = {spatial::pt{{10, 10}}, spatial::pt{{20, 20}},
                              spatial::pt{{450, 450}}};
  const auto rb = be.publish_batch(a, pts, 3);
  EXPECT_EQ(rb.false_negatives, 0u);
  EXPECT_EQ(rb.interested, 4u);  // 1 + 1 + 2 receivers across the batch

  EXPECT_TRUE(be.unsubscribe(b));
  EXPECT_EQ(be.population(), 1u);
}

/// The parity timeline: churn-free (populate + publishes only), because
/// the wall-clock daemon honestly lacks round-stepped stabilization.
engine::scenario parity_scenario() {
  return engine::scenario::make("net_parity")
      .seed(7)
      .populate(40)
      .publish_sweep(50, workload::event_family::matching)
      .publish_batch(48, 16)
      .build();
}

TEST(NetBackend, ChurnFreeTimelineMatchesDrtreeDigestBitForBit) {
  const auto sc = parity_scenario();

  engine::drtree_backend dr(small_config(23));
  engine::scenario_runner rd(dr);
  const auto rec_dr = rd.run(sc);

  service_config cfg;
  cfg.backend = small_config(23);
  cfg.stabilize_every_ms = 0;  // only client operations may make traffic
  engine::net_backend net(cfg);
  engine::scenario_runner rn(net);
  const auto rec_net = rn.run(sc);

  EXPECT_EQ(rec_dr.digest(), rec_net.digest());
  ASSERT_EQ(rec_dr.phases().size(), rec_net.phases().size());
  for (std::size_t i = 0; i < rec_dr.phases().size(); ++i) {
    EXPECT_EQ(rec_dr.phases()[i].messages, rec_net.phases()[i].messages) << i;
    EXPECT_EQ(rec_dr.phases()[i].population, rec_net.phases()[i].population)
        << i;
  }
  const auto* sweep = rec_net.last("publish_sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->false_negatives, 0u);
  const auto* batch = rec_net.last("publish_batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->false_negatives, 0u);
}

TEST(NetBackend, ChurnTimelineAlsoMatchesDrtree) {
  // Connection-close churn drives the same controlled-leave path the
  // drtree backend uses, so even a churning timeline (still without
  // converge/step_rounds) must agree.
  const auto sc = engine::scenario::make("net_churn")
                      .seed(11)
                      .populate(24)
                      .churn_wave(10, 0.5, 6)
                      .publish_sweep(30, workload::event_family::matching)
                      .build();

  engine::drtree_backend dr(small_config(31));
  engine::scenario_runner rd(dr);
  const auto rec_dr = rd.run(sc);

  service_config cfg;
  cfg.backend = small_config(31);
  engine::net_backend net(cfg);
  engine::scenario_runner rn(net);
  const auto rec_net = rn.run(sc);

  EXPECT_EQ(rec_dr.digest(), rec_net.digest());
}

TEST(NetBackend, TwoSpawnedServicesAreDeterministic) {
  const auto sc = parity_scenario();
  auto run_once = [&] {
    service_config cfg;
    cfg.backend = small_config(17);
    engine::net_backend be(cfg);
    engine::scenario_runner runner(be);
    return runner.run(sc);
  };
  EXPECT_EQ(run_once().digest(), run_once().digest());
}

TEST(NetBackend, StepRoundsPhasesAreRecordedAsSkipped) {
  // Satellite regression: on a backend without cap_stabilize the runner
  // must record step_rounds as skipped, not silently no-op it.
  const auto sc = engine::scenario::make("steps")
                      .seed(3)
                      .populate(8)
                      .step_rounds(3)
                      .build();

  service_config cfg;
  cfg.backend = small_config(19);
  engine::net_backend net(cfg);
  engine::scenario_runner rn(net);
  const auto rec_net = rn.run(sc);
  const auto* net_row = rec_net.last("step_rounds");
  ASSERT_NE(net_row, nullptr);
  EXPECT_TRUE(net_row->skipped);

  engine::drtree_backend dr(small_config(19));
  engine::scenario_runner rd(dr);
  const auto rec_dr = rd.run(sc);
  const auto* dr_row = rec_dr.last("step_rounds");
  ASSERT_NE(dr_row, nullptr);
  EXPECT_FALSE(dr_row->skipped);
}

// ============================================================ gated soak

TEST(Soak, ConcurrentClientsWithMidRunDisconnects) {
  if (std::getenv("DRT_NET_SOAK") == nullptr) {
    GTEST_SKIP() << "set DRT_NET_SOAK=1 to run the localhost soak";
  }
  int seconds = 20;
  if (const char* env = std::getenv("DRT_NET_SOAK_SECONDS")) {
    seconds = std::max(1, std::atoi(env));
  }

  service_config cfg;
  cfg.backend = small_config(2007);
  cfg.stabilize_every_ms = 20;
  service_fixture fx(cfg);

  constexpr int kThreads = 16;
  std::atomic<int> failures{0};
  std::atomic<long> publishes{0};
  // Mid-churn false negatives are transient DR-tree behavior (the
  // delivery guarantee is eventual, restored by stabilization) — counted
  // here for the log, only the quiescent sweep below must be exact.
  std::atomic<long> transient_fn{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::rng rng(0x50a17ull + static_cast<std::uint64_t>(t));
      while (std::chrono::steady_clock::now() < deadline) {
        client c(fx.port());
        if (!c.ok()) {
          ++failures;
          return;
        }
        std::vector<std::uint64_t> subs;
        const auto nsubs = rng.uniform_int(1, 3);
        for (std::int64_t i = 0; i < nsubs; ++i) {
          const double x = rng.uniform_real(0, 900);
          const double y = rng.uniform_real(0, 900);
          const auto s = c.subscribe(make_rect2(x, y, x + 100, y + 100));
          if (s == static_cast<std::uint64_t>(engine::kNoSub)) {
            ++failures;
            return;
          }
          subs.push_back(s);
        }
        const auto npubs = rng.uniform_int(2, 10);
        for (std::int64_t i = 0; i < npubs; ++i) {
          const auto r = c.publish(
              subs[rng.index(subs.size())],
              spatial::pt{{rng.uniform_real(0, 1000),
                           rng.uniform_real(0, 1000)}});
          if (r.ok != 1) {
            ++failures;
            return;
          }
          transient_fn += static_cast<long>(r.false_negatives);
          ++publishes;
          c.events().clear();
        }
        // Half the sessions leave cleanly, half just vanish — the
        // disconnect-churn path under load.
        if (rng.chance(0.5)) {
          for (const auto s : subs) {
            if (!c.unsubscribe(s)) {
              ++failures;
              return;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(publishes.load(), 0l);
  std::fprintf(stderr, "soak: %ld publishes, %ld transient fn\n",
               publishes.load(), transient_fn.load());

  // Quiescent sweep: every session is gone, the daemon processed all the
  // departures, and the surviving structure still delivers exactly.
  await_population(fx.port(), 0);
  client c(fx.port());
  ASSERT_TRUE(c.ok());
  const auto s = c.subscribe(make_rect2(0, 0, 1000, 1000));
  ASSERT_TRUE(c.alive(s));
  const auto r = c.publish(s, spatial::pt{{500, 500}});
  EXPECT_EQ(r.ok, 1u);
  EXPECT_EQ(r.interested, 1u);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_TRUE(c.stat().legal);
  EXPECT_TRUE(c.unsubscribe(s));
}

}  // namespace
}  // namespace drt::rpc
