// Service-mode smoke example (DESIGN.md §10, README "Running the
// daemon"): spawn the drtd service in-process on an ephemeral port, talk
// to it with rpc::client, and show the subscribe / publish / event-push
// / disconnect-churn lifecycle end to end.
//
// Doubles as a CTest smoke test (label `examples`), so the whole
// socket path — event loop, wire codec, ownership cleanup — must work
// for the suite to stay green.
#include <chrono>
#include <cstdio>
#include <thread>

#include "geometry/rect.h"
#include "rpc/client.h"
#include "spatial/types.h"
#include "rpc/service.h"
#include "util/expect.h"

int main() {
  // An ephemeral-port service with the wall-clock stabilizer on a
  // 50 ms cadence, hosted on its own thread.
  drt::rpc::service_config config;
  config.stabilize_every_ms = 50;
  drt::rpc::service service(config);
  std::thread daemon([&service] { service.run(); });
  std::printf("serving on 127.0.0.1:%u\n", service.port());

  {
    drt::rpc::client alice(service.port());
    drt::rpc::client bob(service.port());
    DRT_ENSURE(alice.ok() && bob.ok());

    // Alice watches the north-east quadrant, Bob the full workspace.
    const auto ne = drt::geo::make_rect2(500, 500, 1000, 1000);
    const auto all = drt::geo::make_rect2(0, 0, 1000, 1000);
    const auto a = alice.subscribe(ne);
    const auto b = bob.subscribe(all);
    DRT_ENSURE(alice.alive(a) && bob.alive(b));
    std::printf("subscribed: alice=%llu bob=%llu, population=%llu\n",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(alice.stat().population));

    // Bob publishes into Alice's quadrant: both filters match.
    const auto report = bob.publish(b, drt::spatial::pt{{750.0, 750.0}});
    DRT_ENSURE(report.ok == 1);
    DRT_ENSURE(report.interested == 2);
    DRT_ENSURE(report.false_negatives == 0);
    std::printf("publish(750,750): interested=%llu delivered=%llu "
                "messages=%llu\n",
                static_cast<unsigned long long>(report.interested),
                static_cast<unsigned long long>(report.delivered),
                static_cast<unsigned long long>(report.messages));

    // The publish reply already drained the overlay, so Bob's own
    // notification arrived with it; Alice sees hers on her next RPC.
    DRT_ENSURE(alice.ping());
    std::printf("pushes: alice=%zu bob=%zu\n", alice.events().size(),
                bob.events().size());
    DRT_ENSURE(!bob.events().empty());

    // Alice unsubscribes cleanly; Bob just disconnects — the daemon
    // unsubscribes his filter through the controlled-leave path.
    DRT_ENSURE(alice.unsubscribe(a));
  }

  // Bob's EOF races with shutdown; watch through a monitor connection
  // until the daemon has processed his departure.
  {
    drt::rpc::client monitor(service.port());
    while (monitor.ok() && monitor.stat().population != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    DRT_ENSURE(monitor.ok());
  }

  service.stop();
  daemon.join();
  const auto stats = service.stats_snapshot();
  std::printf("daemon stats: %llu conns, %llu frames, %llu pushed, "
              "%llu disconnect unsubscribes\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.frames_in),
              static_cast<unsigned long long>(stats.events_pushed),
              static_cast<unsigned long long>(stats.disconnect_unsubscribes));
  DRT_ENSURE(stats.disconnect_unsubscribes == 1);  // bob's abrupt exit
  DRT_ENSURE(service.backend().population() == 0);
  std::printf("ok\n");
  return 0;
}
