#include "engine/backends.h"

#include <algorithm>
#include <cmath>

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

overlay_backend_config configured_for(const scenario& sc,
                                      overlay_backend_config base) {
  if (sc.net.has_value()) base.net.link = *sc.net;
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
  // Never a 32-bit cast of the 64-bit id, which would read (1 << 32) + p
  // as p.
  const auto local = s / overlays_.size();
  return local < overlays_[shard_of(s)]->sim().process_count()
             ? static_cast<spatial::peer_id>(local)
             : spatial::kNoPeer;
}

capability_mask drtree_backend::capabilities() const {
  capability_mask caps = cap_unsubscribe | cap_crash | cap_restart |
                         cap_corruption | cap_stabilize;
  // One simulator owns the net model partition and degrade act on.
  if (overlays_.size() == 1) caps |= cap_partition | cap_degrade;
  return caps;
}

bool drtree_backend::partition(const std::vector<sub_id>& side_b) {
  if (overlays_.size() != 1) return false;
  // An id that names no peer maps to kNoPeer, which the simulator
  // rejects: nothing is installed.
  std::vector<spatial::peer_id> peers;
  peers.reserve(side_b.size());
  for (const auto s : side_b) peers.push_back(local_of(s));
  return overlays_[0]->partition(peers);
}

bool drtree_backend::heal() {
  if (overlays_.size() != 1) return false;
  overlays_[0]->heal_partition();
  return true;
}

bool drtree_backend::degrade_links(double latency_factor, double extra_loss,
                                   double ramp_rounds) {
  if (overlays_.size() != 1) return false;
  auto& ov = *overlays_[0];
  ov.degrade_links(latency_factor, extra_loss,
                   ramp_rounds * ov.config().stabilize_period);
  return true;
}

sub_id drtree_backend::subscribe(const spatial::box& filter) {
  if (filter.is_empty()) return kNoSub;
  for (std::size_t d = 0; d < filter.dims(); ++d) {
    if (std::isnan(filter.lo[d]) || std::isnan(filter.hi[d])) return kNoSub;
  }
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
  auto& ov = *overlays_[shard_of(s)];
  const auto p = local_of(s);
  if (!ov.alive(p)) return false;
  ov.crash(p);
  return true;
}

bool drtree_backend::restart(sub_id s) {
  auto& ov = *overlays_[shard_of(s)];
  const auto p = local_of(s);
  if (p == spatial::kNoPeer || ov.alive(p)) return false;
  ov.restart(p);
  return true;
}

std::size_t drtree_backend::corrupt(double rate, std::uint64_t seed) {
  std::size_t mutations = 0;
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    overlay::corruptor vandal(*overlays_[i], seed + i);
    mutations += vandal.corrupt(overlay::uniform_corruption(rate));
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

delivery_report drtree_backend::publish_batch(sub_id publisher,
                                              const spatial::pt* values,
                                              std::size_t n,
                                              const publish_visitor& visit) {
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
    auto& ov = *overlays_[i];
    const auto after = ov.sim().metrics().messages_sent;
    for (std::size_t e = 0; e < n; ++e) {
      // The shard's first event carries its whole message delta; `after`
      // as the baseline zeroes the rest.
      const auto r = ov.publish_finish(first_id + e, values[e],
                                       e == 0 ? before[i] : after);
      rep.interested += r.interested;
      rep.delivered += r.delivered;
      rep.false_positives += r.false_positives;
      rep.false_negatives += r.false_negatives;
      rep.messages += r.messages;
      rep.max_hops = std::max(rep.max_hops, r.max_hops);
      if (visit) visit(i, e, r, ov.finish_matches());
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
    if (!overlay::checker(*ov).legal()) return false;
  }
  return true;
}

backend_shape drtree_backend::shape() const {
  // The checker's structural view, so the rows compare directly with the
  // baselines'.
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
    s.avg_degree = report.avg_interior_children;
  }
  // One shard keeps the checker's own mean: re-weighting it could move
  // it by an ulp.
  if (overlays_.size() > 1) {
    s.avg_degree = degree_nodes == 0 ? 0.0 : degree_sum / degree_nodes;
  }
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

delivery_report baseline_backend::publish_batch(sub_id publisher,
                                                const spatial::pt* values,
                                                std::size_t n) {
  const auto idx = index_of(publisher);
  DRT_EXPECT(idx != npos);
  delivery_report total;
  for (std::size_t i = 0; i < n; ++i) {
    const auto diss = impl_->publish(idx, values[i]);
    messages_ += diss.messages;
    const auto s = scorer_.score(values[i], diss.receivers);
    total.interested += s.interested;
    total.delivered += s.delivered;
    total.false_positives += s.false_positives;
    total.false_negatives += s.false_negatives;
    total.messages += diss.messages;
    total.max_hops = std::max(total.max_hops, diss.max_hops);
  }
  return total;
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
    const overlay_backend_config& config) {
  std::vector<std::unique_ptr<backend>> out;
  out.push_back(std::make_unique<drtree_backend>(config));
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
