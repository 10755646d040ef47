// engine::net_backend (DESIGN.md §10): the real-transport adapter — the
// engine's backend interface served over localhost sockets by a drtd
// daemon it spawns in-process on its own thread.  Every existing
// scenario, metrics schema, and bench-JSON emitter runs unchanged
// against it.
//
// The capability mask is honest, per DESIGN.md §6: connection close is
// the only churn primitive a socket transport has, so the mask is
// cap_unsubscribe alone.  No cap_crash/cap_corruption (a hosted overlay
// cannot fake a silent peer crash from outside), and no cap_stabilize —
// the daemon's stabilizer is wall-clock-driven, not round-stepped, so
// step_round() is a no-op and step_rounds phases record skipped=true
// rather than lying in metrics rows.
#ifndef DRT_RPC_NET_BACKEND_H
#define DRT_RPC_NET_BACKEND_H

#include <memory>
#include <thread>

#include "engine/backend.h"
#include "rpc/client.h"
#include "rpc/service.h"

namespace drt::engine {

class net_backend final : public backend {
 public:
  /// Spawn a drtd in-process: the service runs on its own thread, bound
  /// to an ephemeral port (unless the config pins one), and is stopped
  /// and joined by the destructor.
  explicit net_backend(const rpc::service_config& config);
  ~net_backend() override;

  std::string name() const override { return "net"; }
  capability_mask capabilities() const override { return cap_unsubscribe; }

  sub_id subscribe(const spatial::box& filter) override;
  bool unsubscribe(sub_id s) override;

  bool alive(sub_id s) const override;
  std::vector<sub_id> active() const override;
  std::size_t population() const override;
  sub_id root() const override;

  /// One publish_batch frame per envelope of up to
  /// dr_batch_msg::kMaxEvents events (rpc::client::publish_batch).
  delivery_report publish_batch(sub_id publisher, const spatial::pt* values,
                                std::size_t n) override;

  /// The daemon drains the overlay before every reply, so there is
  /// never in-flight work for the client to wait on.
  void settle() override {}
  /// Wall-clock drives the daemon's stabilizer; there is no honest
  /// round-step over the wire (see the capability mask).
  void step_round() override {}

  bool legal() const override;
  backend_shape shape() const override;
  backend_counters counters() const override;

  /// True while the connection (and so the daemon) is healthy.
  bool connected() const { return client_.ok(); }
  rpc::client& raw_client() { return client_; }
  /// The spawned service.
  rpc::service* spawned_service() { return service_.get(); }
  std::uint16_t port() const { return port_; }

 private:
  // The client is logically const-correct for read RPCs; the socket it
  // drives is not, hence the mutable.
  mutable rpc::client client_;
  std::unique_ptr<rpc::service> service_;
  std::thread service_thread_;
  std::uint16_t port_ = 0;
};

}  // namespace drt::engine

#endif  // DRT_RPC_NET_BACKEND_H
