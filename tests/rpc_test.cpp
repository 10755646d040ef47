// Service-mode tests (DESIGN.md §10): the wire codec (round-trip + fuzz +
// malformed-input rejection), the hierarchical timer wheel, the event
// loop, the drtd service against real localhost sockets, and the
// engine::net_backend adapter — including the digest-parity guarantee:
// a churn-free timeline served over TCP must reproduce the
// drtree_backend's recorder digest bit for bit.
//
// The soak test at the bottom is gated behind DRT_NET_SOAK=1 (CI runs it
// under ASan); everything else is tier-1.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
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
#include "rpc/timer_wheel.h"
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

TEST(WireCodec, FuzzRoundTripsRandomizedOverlayMessages) {
  util::rng rng(0x5eedu);
  for (int iter = 0; iter < 500; ++iter) {
    overlay::dr_msg in{};
    in.kind = static_cast<overlay::msg_kind>(rng.uniform_int(0, 11));
    in.subject = static_cast<spatial::peer_id>(rng.next_u64());
    in.h = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
    in.mbr = make_rect2(rng.uniform_real(-1e6, 1e6),
                        rng.uniform_real(-1e6, 1e6),
                        rng.uniform_real(-1e6, 1e6),
                        rng.uniform_real(-1e6, 1e6));
    in.hops_left = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    in.descending = rng.chance(0.5);
    in.hop = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    in.query_id = rng.next_u64();
    in.reply_to = static_cast<spatial::peer_id>(rng.next_u64());

    std::vector<std::byte> buf;
    put_frame(buf, frame_type::overlay_msg,
              static_cast<std::uint32_t>(rng.next_u64()), in);
    overlay::dr_msg out{};
    decode_one(buf, out);
    ASSERT_EQ(std::memcmp(&in, &out, sizeof(in)), 0) << "iter " << iter;
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
    put_frame(buf, frame_type::overlay_batch, 1, in, wire);
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
  put_frame(buf, frame_type::overlay_batch, 1, b,
            overlay::dr_batch_msg::bytes_for(5));
  frame_view f;
  std::size_t consumed = 0;
  ASSERT_EQ(try_decode(buf.data(), buf.size(), f, consumed),
            decode_status::ok);
  overlay::dr_batch_msg out{};
  EXPECT_FALSE(read_batch(f, out));

  // A frame too short to even hold the batch header is rejected outright.
  std::vector<std::byte> tiny;
  put_frame_bytes(tiny, frame_type::overlay_batch, 1, &b, 4);
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
      put_frame_bytes(buf, frame_type::overlay_msg, 1, big.data(), big.size()),
      "");
}

// =========================================================== timer wheel

TEST(TimerWheel, FiresInDeadlineOrderAtExactTicks) {
  timer_wheel w;
  std::vector<std::pair<int, std::uint64_t>> fired;
  w.schedule(30, [&] { fired.emplace_back(3, w.now()); });
  w.schedule(10, [&] { fired.emplace_back(1, w.now()); });
  w.schedule(20, [&] { fired.emplace_back(2, w.now()); });
  EXPECT_EQ(w.pending(), 3u);
  EXPECT_EQ(w.advance(100), 3u);
  EXPECT_EQ(w.pending(), 0u);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<int, std::uint64_t>{1, 10}));
  EXPECT_EQ(fired[1], (std::pair<int, std::uint64_t>{2, 20}));
  EXPECT_EQ(fired[2], (std::pair<int, std::uint64_t>{3, 30}));
}

TEST(TimerWheel, SameTickFiresInScheduleOrder) {
  timer_wheel w;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    w.schedule(5, [&order, i] { order.push_back(i); });
  }
  w.advance(5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TimerWheel, PastDeadlinesFireOnTheNextTick) {
  timer_wheel w;
  w.advance(50);
  bool fired = false;
  w.schedule(10, [&] { fired = true; });  // already in the past
  w.advance(51);
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, CancelIsExactIncludingFromACallbackOnTheSameTick) {
  timer_wheel w;
  bool late_fired = false;
  const timer_id victim = w.schedule(10, [&] { late_fired = true; });
  EXPECT_TRUE(w.cancel(victim));
  EXPECT_FALSE(w.cancel(victim));  // second cancel: already gone

  // Same-tick assassination: the first timer cancels the second before
  // the wheel reaches it.
  timer_id second = kNoTimer;
  bool second_fired = false;
  w.schedule(20, [&] { w.cancel(second); });
  second = w.schedule(20, [&] { second_fired = true; });
  w.advance(100);
  EXPECT_FALSE(late_fired);
  EXPECT_FALSE(second_fired);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimerWheel, PeriodicRepeatsAndCancelStops) {
  timer_wheel w;
  int count = 0;
  timer_id id = kNoTimer;
  id = w.schedule_periodic(10, 10, [&] {
    if (++count == 3) w.cancel(id);
  });
  // Fine-grained advances: one firing per period boundary.
  for (std::uint64_t t = 1; t <= 100; ++t) w.advance(t);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimerWheel, PeriodicSkipsMissedPeriodsInsteadOfBursting) {
  timer_wheel w;
  std::vector<std::uint64_t> fires;
  w.schedule_periodic(10, 10, [&] { fires.push_back(w.now()); });
  // One big jump across 4 period boundaries: the stabilizer that slept
  // through them runs once, and the next deadline lands past the jump.
  w.advance(45);
  EXPECT_EQ(fires, (std::vector<std::uint64_t>{10}));
  w.advance(55);
  EXPECT_EQ(fires, (std::vector<std::uint64_t>{10, 50}));
}

TEST(TimerWheel, CascadesAcrossLevelBoundaries) {
  // Deltas straddling the level-0 lap (64) and the level-1 lap (4096):
  // each must fire at its exact deadline, not at a cascade boundary.
  for (const std::uint64_t delta :
       {63ull, 64ull, 65ull, 4095ull, 4096ull, 4097ull}) {
    timer_wheel w;
    w.advance(7);  // misalign the cursor from slot 0
    std::uint64_t fired_at = 0;
    w.schedule(7 + delta, [&] { fired_at = w.now(); });
    w.advance(7 + delta - 1);
    EXPECT_EQ(fired_at, 0u) << "delta " << delta << " fired early";
    w.advance(7 + delta);
    EXPECT_EQ(fired_at, 7 + delta) << "delta " << delta;
  }
}

TEST(TimerWheel, OverflowBeyondHorizonFiresExactlyOnce) {
  timer_wheel w;
  const std::uint64_t deadline = timer_wheel::kHorizon + 1234;
  std::uint64_t fired_at = 0;
  int fires = 0;
  w.schedule(deadline, [&] {
    fired_at = w.now();
    ++fires;
  });
  // Before the horizon lap the wheel only promises a wake at the lap.
  EXPECT_LE(w.next_wake(), timer_wheel::kHorizon);
  w.advance(deadline - 1);
  EXPECT_EQ(fires, 0);
  w.advance(deadline + 10);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_at, deadline);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimerWheel, NextWakeIsExactWithinLevelZeroAndNeverWhenIdle) {
  timer_wheel w;
  EXPECT_EQ(w.next_wake(), timer_wheel::kNever);
  const timer_id id = w.schedule(17, [] {});
  EXPECT_EQ(w.next_wake(), 17u);
  w.cancel(id);
  // Cancelled ids linger in slots; the wake hint may still point there,
  // but advancing through it fires nothing.
  EXPECT_EQ(w.advance(100), 0u);
  EXPECT_EQ(w.next_wake(), timer_wheel::kNever);
}

TEST(TimerWheel, AdvanceJumpsIdleSpansWithoutPerTickWork) {
  timer_wheel w;
  int fires = 0;
  w.schedule(1'000'000, [&] { ++fires; });
  // One advance spanning a million ticks; with per-tick iteration this
  // would time out, with next_wake jumps it is near-instant.
  const auto start = std::chrono::steady_clock::now();
  w.advance(2'000'000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(fires, 1);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST(TimerWheelDeathTest, ZeroPeriodIsAContractViolation) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  timer_wheel w;
  EXPECT_DEATH(w.schedule_periodic(5, 0, [] {}), "");
}

// ============================================================ event loop

TEST(EventLoop, AfterFiresOnceAndStopsTheLoop) {
  event_loop loop;
  int fires = 0;
  loop.after(5, [&] {
    ++fires;
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(loop.stopped());
}

TEST(EventLoop, EveryRepeatsUntilCancelled) {
  event_loop loop;
  int fires = 0;
  timer_id id = kNoTimer;
  id = loop.every(2, [&] {
    if (++fires == 3) {
      loop.cancel(id);
      loop.stop();
    }
  });
  loop.run();
  EXPECT_EQ(fires, 3);
}

TEST(EventLoop, PostRunsOnTheLoopThread) {
  event_loop loop;
  std::thread::id loop_thread;
  std::thread poster([&] {
    loop.post([&] {
      loop_thread = std::this_thread::get_id();
      loop.stop();
    });
  });
  loop.run();
  poster.join();
  EXPECT_EQ(loop_thread, std::this_thread::get_id());
}

TEST(EventLoop, StopFromAnotherThreadWakesABlockedLoop) {
  event_loop loop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    loop.stop();
  });
  loop.run();  // blocked in poll until the stopper's wakeup
  stopper.join();
  EXPECT_TRUE(loop.stopped());
}

TEST(EventLoop, DispatchesPipeReadability) {
  for (const bool force_poll : {false, true}) {
    event_loop loop(event_loop_config{force_poll});
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
}

TEST(EventLoop, ForcePollDisablesEpoll) {
  event_loop loop(event_loop_config{true});
  EXPECT_FALSE(loop.using_epoll());
#ifdef __linux__
  event_loop native;
  EXPECT_TRUE(native.using_epoll());
#endif
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
  ~service_fixture() {
    service_.stop();
    thread_.join();
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
  EXPECT_GE(fx.get().stats().disconnect_unsubscribes, 2u);
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

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
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
  EXPECT_GE(fx.get().stats().protocol_errors, 1u);
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

TEST(Service, ServesOverPollFallback) {
  service_config cfg;
  cfg.backend = small_config(11);
  cfg.force_poll = true;
  service_fixture fx(cfg);

  client c(fx.port());
  ASSERT_TRUE(c.ok());
  const auto s = c.subscribe(make_rect2(0, 0, 10, 10));
  ASSERT_TRUE(c.alive(s));
  EXPECT_EQ(c.publish(s, spatial::pt{{5, 5}}).delivered, 1u);
  EXPECT_TRUE(c.unsubscribe(s));
}

TEST(Service, WallClockStabilizerRunsRounds) {
  // Polls the counters until `done` holds (same budget for every case);
  // the structure must stay legal under background stabilization.
  auto serve = [](std::size_t stride, auto done) {
    service_config cfg;
    cfg.backend = small_config(12);
    cfg.backend.dr.sweep_stride = stride;
    cfg.stabilize_every_ms = 5;
    service_fixture fx(cfg);

    client c(fx.port());
    EXPECT_TRUE(c.ok());
    EXPECT_NE(c.subscribe(make_rect2(0, 0, 10, 10)),
              static_cast<std::uint64_t>(engine::kNoSub));
    for (int i = 0; i < 200 && !done(fx.get().stats_snapshot()); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(c.stat().legal);
    return fx.get().stats_snapshot();
  };

  // The default stride is the paper's schedule: a round every tick.
  const auto every = serve(
      engine::overlay_backend_config{}.dr.sweep_stride,
      [](const service::counters& st) { return st.stabilize_rounds >= 3; });
  EXPECT_GE(every.stabilize_rounds, 3u);
  EXPECT_EQ(every.stabilize_skipped, 0u);

  // At stride 16 the idle overlay's backlog drains, and the ticks between
  // background sweeps are skipped.
  const auto sparse = serve(16, [](const service::counters& st) {
    return st.stabilize_skipped > 0;
  });
  EXPECT_GT(sparse.stabilize_skipped, 0u);
}

// ========================================================= introspection

TEST(Service, LiveStatsMidChurn) {
  // The observability contract (DESIGN.md §12): a serving daemon answers
  // STATS while clients churn, the text is Prometheus-parseable, counters
  // are monotonic across reads, and the overlay gauges reflect the
  // population actually subscribed.
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
  // the daemon pages the exposition back.
  std::thread churn([port = fx.port()] {
    for (int round = 0; round < 6; ++round) {
      client ephemeral(port);
      if (!ephemeral.ok()) continue;
      ephemeral.subscribe(make_rect2(0, 0, 30, 30));
      ephemeral.subscribe(make_rect2(40, 40, 90, 90));
      // Destructor = abrupt disconnect, the churn primitive.
    }
  });
  const auto first_text = owner.stats_text();
  churn.join();
  ASSERT_FALSE(first_text.empty());
  const auto first = obs::parse_exposition(first_text);
  ASSERT_NE(first.count("drtd_frames_in_total"), 0u);
  ASSERT_NE(first.count("drtd_overlay_population"), 0u);
  EXPECT_GT(first.at("drtd_frames_in_total"), 0.0);

  // After the churn drains, the gauges settle on the surviving owner
  // subscriptions and the tree has real height.
  await_population(fx.port(), 12);
  const auto second = obs::parse_exposition(owner.stats_text());
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
  service_config cfg;
  cfg.backend = small_config(32);
  service_fixture fx(cfg);

  client c(fx.port());
  ASSERT_TRUE(c.ok());
  ASSERT_NE(c.subscribe(make_rect2(0, 0, 100, 100)),
            static_cast<std::uint64_t>(engine::kNoSub));

  // This thread is neither the loop thread nor a wire client: the
  // snapshot marshals through the event loop and comes back consistent.
  const auto snap = fx.get().stats_snapshot();
  EXPECT_GE(snap.connections_accepted, 1u);
  EXPECT_GT(snap.frames_in, 0u);

  const auto text = fx.get().metrics_text();
  const auto parsed = obs::parse_exposition(text);
  ASSERT_NE(parsed.count("drtd_overlay_population"), 0u);
  EXPECT_DOUBLE_EQ(parsed.at("drtd_overlay_population"), 1.0);
}

TEST(Service, HttpGetMetricsServesPrometheus) {
  service_config cfg;
  cfg.backend = small_config(33);
  service_fixture fx(cfg);

  client c(fx.port());
  ASSERT_TRUE(c.ok());
  ASSERT_NE(c.subscribe(make_rect2(0, 0, 200, 200)),
            static_cast<std::uint64_t>(engine::kNoSub));

  auto http_get = [&](const char* request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_GT(::send(fd, request, std::strlen(request), 0), 0);
    std::string response;
    char buf[4096];
    for (;;) {
      const auto n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;  // daemon closes after one response
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };

  const auto ok = http_get("GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
  EXPECT_EQ(ok.compare(0, 15, "HTTP/1.0 200 OK"), 0) << ok;
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const auto body_at = ok.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const auto parsed = obs::parse_exposition(ok.substr(body_at + 4));
  ASSERT_NE(parsed.count("drtd_connections_accepted_total"), 0u);
  EXPECT_DOUBLE_EQ(parsed.at("drtd_overlay_population"), 1.0);

  const auto missing = http_get("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(missing.compare(0, 12, "HTTP/1.0 404"), 0) << missing;

  // The wire protocol still works on the same port after HTTP traffic.
  EXPECT_TRUE(c.ping());
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
