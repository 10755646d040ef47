#include "rpc/net_backend.h"

#include <utility>

#include "util/expect.h"

namespace drt::engine {

net_backend::net_backend(const rpc::service_config& config)
    : service_(std::make_unique<rpc::service>(config)) {
  port_ = service_->port();
  service_thread_ = std::thread([svc = service_.get()] { svc->run(); });
  DRT_ENSURE(client_.connect(port_));
}

net_backend::~net_backend() {
  client_.close();
  service_->stop();
  service_thread_.join();
}

sub_id net_backend::subscribe(const spatial::box& filter) {
  // Notifications for past publications are irrelevant to the engine's
  // report-driven accounting; keep the buffer from growing unbounded.
  client_.events().clear();
  return client_.subscribe(filter);
}

bool net_backend::unsubscribe(sub_id s) {
  client_.events().clear();
  return client_.unsubscribe(s);
}

bool net_backend::alive(sub_id s) const { return client_.alive(s); }

std::vector<sub_id> net_backend::active() const { return client_.active(); }

std::size_t net_backend::population() const {
  return static_cast<std::size_t>(client_.stat().population);
}

sub_id net_backend::root() const { return client_.stat().root; }

namespace {

delivery_report to_report(const rpc::report_body& r) {
  delivery_report d;
  d.interested = r.interested;
  d.delivered = r.delivered;
  d.false_positives = r.false_positives;
  d.false_negatives = r.false_negatives;
  d.messages = r.messages;
  d.max_hops = r.max_hops;
  return d;
}

}  // namespace

delivery_report net_backend::publish_batch(sub_id publisher,
                                           const spatial::pt* values,
                                           std::size_t n) {
  client_.events().clear();
  return to_report(client_.publish_batch(publisher, values, n));
}

bool net_backend::legal() const { return client_.stat().legal != 0; }

backend_shape net_backend::shape() const {
  const auto s = client_.stat();
  backend_shape shape;
  shape.population = s.population;
  shape.height = s.height;
  shape.max_degree = s.max_degree;
  shape.avg_degree = s.avg_degree;
  shape.routing_state = s.routing_state;
  return shape;
}

backend_counters net_backend::counters() const {
  return {client_.stat().messages, 0};
}

}  // namespace drt::engine
