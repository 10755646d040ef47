#include "engine/backends.h"

#include <algorithm>

#include "baselines/containment_tree.h"
#include "baselines/dimension_forest.h"
#include "baselines/flooding.h"
#include "baselines/zcurve_dht.h"
#include "drtree/checker.h"
#include "drtree/corruptor.h"
#include "drtree/messages.h"
#include "engine/scenario.h"
#include "util/expect.h"

namespace drt::engine {

namespace {

/// Both overlay-backed adapters report the checker's structural view so
/// their shape rows are directly comparable with the baselines'.
backend_shape shape_of_overlay(const overlay::dr_overlay& ov) {
  const auto report = overlay::checker(ov).check();
  backend_shape s;
  s.population = report.live_peers;
  s.height = report.height;
  s.max_degree = report.max_interior_children;
  s.avg_degree = report.avg_interior_children;
  s.routing_state = report.memory_links;
  return s;
}

std::size_t corrupt_overlay(overlay::dr_overlay& ov, double rate,
                            std::uint64_t seed) {
  overlay::corruptor vandal(ov, seed);
  return vandal.corrupt(overlay::uniform_corruption(rate));
}

/// `local` as a peer id of `ov`, or kNoPeer when `ov` never created that
/// peer.  Never a 32-bit cast of the 64-bit id, which would read
/// (1 << 32) + p as p.
spatial::peer_id peer_of(const overlay::dr_overlay& ov, std::uint64_t local) {
  return local < ov.sim().process_count()
             ? static_cast<spatial::peer_id>(local)
             : spatial::kNoPeer;
}

bool crash_peer(overlay::dr_overlay& ov, spatial::peer_id p) {
  if (!ov.alive(p)) return false;
  ov.crash(p);
  return true;
}

bool restart_peer(overlay::dr_overlay& ov, spatial::peer_id p) {
  if (p == spatial::kNoPeer || ov.alive(p)) return false;
  ov.restart(p);
  return true;
}

/// Both overlay adapters expose partition/degrade iff the sim's net
/// model has a dynamic fault layer — capabilities are honest, never
/// aspirational.
capability_mask overlay_capabilities(const overlay::dr_overlay& ov) {
  capability_mask m = cap_unsubscribe | cap_crash | cap_restart |
                      cap_corruption | cap_stabilize;
  if (ov.sim().dynamic_net() != nullptr) m |= cap_partition | cap_degrade;
  return m;
}

bool partition_overlay(overlay::dr_overlay& ov,
                       const std::vector<sub_id>& side_b) {
  std::vector<spatial::peer_id> peers;
  peers.reserve(side_b.size());
  for (const auto s : side_b) {
    peers.push_back(static_cast<spatial::peer_id>(s));
  }
  return ov.partition(peers);
}

bool degrade_overlay(overlay::dr_overlay& ov, double latency_factor,
                     double extra_loss, double ramp_rounds) {
  return ov.degrade_links(latency_factor, extra_loss,
                          ramp_rounds * ov.config().stabilize_period);
}

}  // namespace

overlay_backend_config configured_for(const scenario& sc,
                                      overlay_backend_config base) {
  if (sc.net.has_value()) base.net.model = *sc.net;
  return base;
}

// ------------------------------------------------------- drtree_backend

drtree_backend::drtree_backend(overlay_backend_config config,
                               std::size_t shards, bool parallel)
    : kernel_([&] {
        sim::kernel_config kc;
        kc.shards = shards == 0 ? 1 : shards;
        kc.window = config.dr.stabilize_period;
        kc.parallel = parallel;
        return kc;
      }()) {
  const auto n = kernel_.shards();
  overlays_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto scfg = config.net;
    // Distinct per-shard RNG streams; shard 0 keeps the base seed, so a
    // one-shard run consumes the stream exactly like the plain overlay.
    scfg.seed = config.net.seed + i * 0x9e3779b97f4a7c15ull;
    overlays_.push_back(
        std::make_unique<overlay::dr_overlay>(config.dr, scfg));
    if (auto* t = overlays_.back()->trace()) {
      t->set_shard(static_cast<std::uint16_t>(i));
    }
    kernel_.attach(i, overlays_.back()->sim());
  }
}

spatial::peer_id drtree_backend::local_of(sub_id s) const {
  return peer_of(*overlays_[shard_of(s)], s / overlays_.size());
}

capability_mask drtree_backend::capabilities() const {
  const auto m = overlay_capabilities(*overlays_[0]);
  return overlays_.size() == 1 ? m : m & ~(cap_partition | cap_degrade);
}

bool drtree_backend::partition(const std::vector<sub_id>& side_b) {
  return overlays_.size() == 1 && partition_overlay(*overlays_[0], side_b);
}

bool drtree_backend::heal() {
  return overlays_.size() == 1 && overlays_[0]->heal_partition();
}

bool drtree_backend::degrade_links(double latency_factor, double extra_loss,
                                   double ramp_rounds) {
  return overlays_.size() == 1 &&
         degrade_overlay(*overlays_[0], latency_factor, extra_loss,
                         ramp_rounds);
}

sub_id drtree_backend::subscribe(const spatial::box& filter) {
  // Round-robin in arrival order: the new id is the number issued so far.
  sub_id s = 0;
  for (const auto& ov : overlays_) s += ov->sim().process_count();
  const auto local = overlays_[shard_of(s)]->add_peer_and_settle(filter);
  DRT_EXPECT(local == s / overlays_.size());
  return s;
}

bool drtree_backend::unsubscribe(sub_id s) {
  auto& ov = *overlays_[shard_of(s)];
  const auto p = local_of(s);
  if (!ov.alive(p)) return false;
  ov.controlled_leave(p);
  ov.settle();
  return true;
}

bool drtree_backend::crash(sub_id s) {
  return crash_peer(*overlays_[shard_of(s)], local_of(s));
}

bool drtree_backend::restart(sub_id s) {
  return restart_peer(*overlays_[shard_of(s)], local_of(s));
}

std::size_t drtree_backend::corrupt(double rate, std::uint64_t seed) {
  std::size_t mutations = 0;
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    mutations += corrupt_overlay(*overlays_[i], rate, seed + i);
  }
  return mutations;
}

bool drtree_backend::alive(sub_id s) const {
  return overlays_[shard_of(s)]->alive(local_of(s));
}

std::vector<sub_id> drtree_backend::active() const {
  std::vector<sub_id> out;
  out.reserve(population());
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    overlays_[i]->for_each_live(
        [&](spatial::peer_id p) { out.push_back(global_of(i, p)); });
  }
  // Shards interleave in id order; one shard is already sorted.
  if (overlays_.size() > 1) std::sort(out.begin(), out.end());
  return out;
}

std::size_t drtree_backend::population() const {
  std::size_t n = 0;
  for (const auto& ov : overlays_) n += ov->live_count();
  return n;
}

sub_id drtree_backend::root() const {
  // The forest has no global root; expose shard 0's (the one a one-shard
  // run would have) so "kill the root" scenarios stay meaningful.
  const auto r = overlays_[0]->current_root();
  return r == spatial::kNoPeer ? kNoSub : global_of(0, r);
}

delivery_report drtree_backend::publish(sub_id publisher,
                                        const spatial::pt& value) {
  return publish_batch(publisher, &value, 1);
}

delivery_report drtree_backend::publish_batch(sub_id publisher,
                                              const spatial::pt* values,
                                              std::size_t n) {
  if (n == 0) return {};
  const auto origin = shard_of(publisher);
  // Shard 0's counter numbers every event, so backend publishes and
  // direct overlay publishes share one id sequence.
  const auto first_id = overlays_[0]->next_event_id(n);
  std::vector<std::uint64_t> before(overlays_.size(), 0);
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    before[i] = overlays_[i]->sim().metrics().messages_sent;
  }
  overlays_[origin]->multi_publish_begin(local_of(publisher), first_id,
                                         values, n);
  for (std::size_t d = 0; d < overlays_.size(); ++d) {
    if (d == origin) continue;
    // One cross-shard injection per shard carries the whole batch — the
    // sharded analogue of the envelope's single descent.  `values` stays
    // valid: settle() below runs every posted injection.
    kernel_.post(origin, d, overlay::dr_batch_msg::bytes_for(n),
                 [this, d, first_id, values, n](sim::simulator&) {
                   overlays_[d]->inject_multi_publish(first_id, values, n);
                 });
  }
  kernel_.settle();

  delivery_report rep;
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    const auto after = overlays_[i]->sim().metrics().messages_sent;
    for (std::size_t e = 0; e < n; ++e) {
      // The shard's first event carries its whole message delta; `after`
      // as the baseline zeroes the rest.
      const auto r = overlays_[i]->publish_finish(
          first_id + e, values[e], e == 0 ? before[i] : after);
      rep.interested += r.interested;
      rep.delivered += r.delivered;
      rep.false_positives += r.false_positives;
      rep.false_negatives += r.false_negatives;
      rep.messages += r.messages;
      rep.max_hops = std::max(rep.max_hops, r.max_hops);
    }
  }
  rep.messages += overlays_.size() - 1;  // the cross-shard injections
  return rep;
}

void drtree_backend::step_round() {
  kernel_.advance(overlays_[0]->config().stabilize_period);
  kernel_.settle();
}

bool drtree_backend::legal() const {
  // A forest is legitimate when every shard's tree is.
  for (const auto& ov : overlays_) {
    if (!overlay::checker(*ov).check().legal()) return false;
  }
  return true;
}

backend_shape drtree_backend::shape() const {
  // One shard reports the checker's own mean: re-weighting it below
  // could move it by an ulp.
  if (overlays_.size() == 1) return shape_of_overlay(*overlays_[0]);
  backend_shape s;
  double degree_sum = 0.0;
  std::size_t degree_nodes = 0;
  for (const auto& ov : overlays_) {
    const auto report = overlay::checker(*ov).check();
    s.population += report.live_peers;
    s.height = std::max(s.height, report.height);
    s.max_degree = std::max(s.max_degree, report.max_interior_children);
    s.routing_state += report.memory_links;
    // Weighted by interior-instance count (total instances minus the one
    // leaf per live peer) so the forest average is honest.
    const std::size_t interior =
        report.instances > report.live_peers
            ? report.instances - report.live_peers
            : 0;
    degree_sum += report.avg_interior_children * interior;
    degree_nodes += interior;
  }
  s.avg_degree = degree_nodes == 0 ? 0.0 : degree_sum / degree_nodes;
  return s;
}

backend_counters drtree_backend::counters() const {
  backend_counters c;
  for (const auto& ov : overlays_) {
    c.messages += ov->sim().metrics().messages_sent;
    c.stabilize_visited += ov->stab_stats().visited;
    c.stabilize_skipped += ov->stab_stats().skipped;
  }
  c.messages += kernel_.metrics().cross_messages;
  return c;
}

std::string drtree_backend::dump_flight(const std::string& reason) {
  std::vector<const obs::trace_ring*> rings;
  for (const auto& ov : overlays_) {
    if (ov->trace() != nullptr) rings.push_back(ov->trace());
  }
  if (rings.empty()) return {};
  const auto merged = obs::merge_traces(rings);
  return obs::write_flight_dump(reason, merged, merged.size(), {});
}

overlay::arena_stats drtree_backend::arena_stats() const {
  overlay::arena_stats total;
  for (const auto& ov : overlays_) {
    const auto st = ov->memory_stats();
    total.slots += st.slots;
    total.live += st.live;
    total.slab_bytes += st.slab_bytes;
    total.heap_bytes += st.heap_bytes;
    total.seen_bytes += st.seen_bytes;
  }
  return total;
}

// ------------------------------------------------------- broker_backend

broker_backend::broker_backend(overlay_backend_config config) {
  pubsub::broker_config bc;
  bc.dr = config.dr;
  bc.net = config.net;
  broker_ = std::make_unique<pubsub::broker>(bc);
}

capability_mask broker_backend::capabilities() const {
  return overlay_capabilities(broker_->raw_overlay());
}

bool broker_backend::partition(const std::vector<sub_id>& side_b) {
  return partition_overlay(broker_->raw_overlay(), side_b);
}

bool broker_backend::degrade_links(double latency_factor, double extra_loss,
                                   double ramp_rounds) {
  return degrade_overlay(broker_->raw_overlay(), latency_factor, extra_loss,
                         ramp_rounds);
}

sub_id broker_backend::subscribe(const spatial::box& filter) {
  const auto client = broker_->add_client();
  const auto handle = broker_->subscribe(client, filter);
  const auto s = static_cast<sub_id>(handle.peer);
  handles_.emplace(s, handle);
  return s;
}

bool broker_backend::unsubscribe(sub_id s) {
  const auto it = handles_.find(s);
  if (it == handles_.end()) return false;
  // One client per subscription: retire the whole client, or clients_
  // would accumulate forever under churn.
  const bool ok = broker_->remove_client(it->second.client);
  handles_.erase(it);
  return ok;
}

bool broker_backend::crash(sub_id s) {
  auto& ov = broker_->raw_overlay();
  return crash_peer(ov, peer_of(ov, s));
}

bool broker_backend::restart(sub_id s) {
  auto& ov = broker_->raw_overlay();
  return restart_peer(ov, peer_of(ov, s));
}

std::size_t broker_backend::corrupt(double rate, std::uint64_t seed) {
  return corrupt_overlay(broker_->raw_overlay(), rate, seed);
}

bool broker_backend::alive(sub_id s) const {
  const auto& ov = broker_->raw_overlay();
  return ov.alive(peer_of(ov, s));
}

std::vector<sub_id> broker_backend::active() const {
  std::vector<sub_id> out;
  out.reserve(broker_->raw_overlay().live_count());
  broker_->raw_overlay().for_each_live(
      [&out](spatial::peer_id p) { out.push_back(p); });
  return out;
}

sub_id broker_backend::root() const {
  const auto r = broker_->raw_overlay().current_root();
  return r == spatial::kNoPeer ? kNoSub : static_cast<sub_id>(r);
}

delivery_report broker_backend::publish(sub_id publisher,
                                        const spatial::pt& value) {
  const auto it = handles_.find(publisher);
  DRT_EXPECT(it != handles_.end());
  const auto out = broker_->publish(it->second.client, value);
  // One client per subscription, so client-level accounting *is*
  // subscription-level accounting.
  delivery_report d;
  d.interested = out.matching_clients;
  d.delivered = out.notified.size();
  d.false_positives = out.client_false_positives;
  d.false_negatives = out.client_false_negatives;
  d.messages = out.messages;
  d.max_hops = out.max_hops;
  return d;
}

delivery_report broker_backend::publish_batch(sub_id publisher,
                                              const spatial::pt* values,
                                              std::size_t n) {
  const auto it = handles_.find(publisher);
  DRT_EXPECT(it != handles_.end());
  const auto outs = broker_->publish_batch(it->second.client, values, n);
  delivery_report d;
  for (const auto& out : outs) {
    d.interested += out.matching_clients;
    d.delivered += out.notified.size();
    d.false_positives += out.client_false_positives;
    d.false_negatives += out.client_false_negatives;
    d.messages += out.messages;
    d.max_hops = std::max(d.max_hops, out.max_hops);
  }
  return d;
}

void broker_backend::step_round() {
  auto& ov = broker_->raw_overlay();
  ov.advance(ov.config().stabilize_period);
  ov.settle();
}

backend_shape broker_backend::shape() const {
  return shape_of_overlay(broker_->raw_overlay());
}

backend_counters broker_backend::counters() const {
  backend_counters c;
  c.messages = broker_->raw_overlay().sim().metrics().messages_sent;
  c.stabilize_visited = broker_->raw_overlay().stab_stats().visited;
  c.stabilize_skipped = broker_->raw_overlay().stab_stats().skipped;
  return c;
}

// ----------------------------------------------------- baseline_backend

baseline_backend::baseline_backend(
    std::unique_ptr<baselines::pubsub_baseline> impl)
    : impl_(std::move(impl)) {
  DRT_EXPECT(impl_ != nullptr);
  rebuild();  // defined empty shape from the start (baseline.h contract)
}

void baseline_backend::rebuild() {
  impl_->build(filters_);
  ++rebuilds_;
  messages_ += impl_->build_messages();
  // Honest-rebuild semantics extend to the ground-truth matcher: it is
  // reconstructed from the surviving subscription set.
  scorer_.rebuild(filters_);
}

std::size_t baseline_backend::index_of(sub_id s) const {
  const auto it = std::find(ids_.begin(), ids_.end(), s);
  return it == ids_.end() ? npos
                          : static_cast<std::size_t>(it - ids_.begin());
}

sub_id baseline_backend::subscribe(const spatial::box& filter) {
  const auto s = next_id_++;
  ids_.push_back(s);
  filters_.push_back(filter);
  rebuild();
  return s;
}

bool baseline_backend::unsubscribe(sub_id s) {
  const auto i = index_of(s);
  if (i == npos) return false;
  ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(i));
  filters_.erase(filters_.begin() + static_cast<std::ptrdiff_t>(i));
  rebuild();
  return true;
}

bool baseline_backend::alive(sub_id s) const { return index_of(s) != npos; }

delivery_report baseline_backend::publish(sub_id publisher,
                                          const spatial::pt& value) {
  const auto idx = index_of(publisher);
  DRT_EXPECT(idx != npos);
  const auto diss = impl_->publish(idx, value);
  messages_ += diss.messages;

  delivery_report d;
  d.messages = diss.messages;
  d.max_hops = diss.max_hops;
  const auto s = scorer_.score(value, diss.receivers);
  d.interested = s.interested;
  d.delivered = s.delivered;
  d.false_positives = s.false_positives;
  d.false_negatives = s.false_negatives;
  return d;
}

backend_shape baseline_backend::shape() const {
  const auto s = impl_->shape();
  backend_shape out;
  out.population = s.population;
  out.height = s.height;
  out.max_degree = s.max_degree;
  out.avg_degree = s.avg_degree;
  out.routing_state = s.routing_state;
  return out;
}

// --------------------------------------------------------------- factory

std::vector<std::unique_ptr<backend>> make_all_backends(
    const overlay_backend_config& config, bool include_broker) {
  std::vector<std::unique_ptr<backend>> out;
  out.push_back(std::make_unique<drtree_backend>(config));
  if (include_broker) {
    out.push_back(std::make_unique<broker_backend>(config));
  }
  out.push_back(std::make_unique<baseline_backend>(
      std::make_unique<baselines::containment_tree>()));
  out.push_back(std::make_unique<baseline_backend>(
      std::make_unique<baselines::dimension_forest>()));
  out.push_back(std::make_unique<baseline_backend>(
      std::make_unique<baselines::flooding>(4, 113)));
  out.push_back(std::make_unique<baseline_backend>(
      std::make_unique<baselines::zcurve_dht>(config.dr.workspace, 5, 127)));
  return out;
}

}  // namespace drt::engine
