#include "pubsub/broker.h"

#include <algorithm>

#include "util/expect.h"

namespace drt::pubsub {

using spatial::peer_id;

broker::broker(engine::overlay_backend_config config)
    : backend_(config) {}

client_id broker::add_client() {
  const auto id = next_client_++;
  clients_.emplace(id, client_state{});
  return id;
}

subscription_handle broker::subscribe(client_id client,
                                      const spatial::box& filter) {
  DRT_EXPECT(clients_.count(client) > 0);
  DRT_EXPECT(!filter.is_empty());
  const auto s = backend_.subscribe(filter);
  DRT_EXPECT(s != engine::kNoSub);  // no NaN bound
  // One shard: the sub_id is the overlay peer id.
  const auto peer = static_cast<peer_id>(s);
  clients_[client].peers.push_back(peer);
  owner_of_[peer] = client;
  return {client, peer};
}

bool broker::unsubscribe(const subscription_handle& handle) {
  auto it = clients_.find(handle.client);
  if (it == clients_.end()) return false;
  auto& peers = it->second.peers;
  const auto pos = std::find(peers.begin(), peers.end(), handle.peer);
  if (pos == peers.end()) return false;
  backend_.unsubscribe(handle.peer);  // a crashed peer is already gone
  peers.erase(pos);
  owner_of_.erase(handle.peer);
  return true;
}

std::size_t broker::unsubscribe_all(client_id client) {
  const auto it = clients_.find(client);
  if (it == clients_.end()) return 0;
  std::size_t removed = 0;
  for (const auto p : it->second.peers) {
    backend_.unsubscribe(p);
    owner_of_.erase(p);
    ++removed;
  }
  it->second.peers.clear();
  return removed;
}

bool broker::remove_client(client_id client) {
  if (clients_.find(client) == clients_.end()) return false;
  unsubscribe_all(client);
  clients_.erase(client);
  return true;
}

std::vector<spatial::box> broker::subscriptions_of(client_id client) const {
  std::vector<spatial::box> out;
  const auto it = clients_.find(client);
  if (it == clients_.end()) return out;
  const auto& ov = backend_.overlay();
  for (const auto p : it->second.peers) {
    if (ov.alive(p)) out.push_back(ov.peer(p).filter());
  }
  return out;
}

peer_id broker::entry_peer(client_id publisher) {
  DRT_EXPECT(clients_.count(publisher) > 0);
  // Inject through one of the publisher's own subscribers when it has
  // any, otherwise through any live overlay peer (a pure producer).
  const auto& ov = backend_.overlay();
  for (const auto p : clients_[publisher].peers) {
    if (ov.alive(p)) return p;
  }
  DRT_EXPECT(ov.live_count() > 0);
  return ov.nth_live(0);  // the lowest live id
}

publish_outcome broker::publish(client_id publisher,
                                const spatial::pt& value) {
  return std::move(publish_batch(publisher, &value, 1).front());
}

std::vector<publish_outcome> broker::publish_batch(client_id publisher,
                                                   const spatial::pt* values,
                                                   std::size_t n) {
  std::vector<publish_outcome> out;
  if (n == 0) return out;
  const auto via = entry_peer(publisher);
  out.reserve(n);
  backend_.publish_batch(
      via, values, n,
      [&](std::size_t, std::size_t i, const overlay::publish_result& r,
          const std::vector<peer_id>& matches) {
        out.push_back(outcome_for(r, matches, via, values[i]));
      });
  return out;
}

publish_outcome broker::outcome_for(const overlay::publish_result& r,
                                    const std::vector<peer_id>& matches,
                                    peer_id via, const spatial::pt& value) {
  publish_outcome out;
  out.event_id = r.event_id;
  out.messages = r.messages;
  out.max_hops = r.max_hops;

  // Client-level aggregation: the owners of the receiving peers and of
  // the live peers whose filter contains the value (the ground truth
  // publish_finish just queried), each sorted and deduped, then merged
  // in O(receivers + matches).
  const auto owners = [this](const auto& peers, std::vector<client_id>& to) {
    to.clear();
    for (const auto p : peers) {
      const auto it = owner_of_.find(p);
      if (it != owner_of_.end()) to.push_back(it->second);
    }
    std::sort(to.begin(), to.end());
    to.erase(std::unique(to.begin(), to.end()), to.end());
  };
  owners(r.receivers, out.notified);
  owners(matches, matched_clients_);
  out.matching_clients = matched_clients_.size();

  spatial::event ev;
  ev.id = r.event_id;
  ev.publisher = via;
  ev.value = value;
  std::size_t both = 0;  // notified and matching
  auto m = matched_clients_.begin();
  for (const auto client : out.notified) {
    while (m != matched_clients_.end() && *m < client) ++m;
    if (m != matched_clients_.end() && *m == client) ++both;
    if (on_delivery_) on_delivery_(client, ev);
  }
  out.client_false_positives = out.notified.size() - both;
  out.client_false_negatives = out.matching_clients - both;
  return out;
}

}  // namespace drt::pubsub
