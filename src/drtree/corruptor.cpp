#include "drtree/corruptor.h"

#include <algorithm>

namespace drt::overlay {

using spatial::kNoPeer;
using spatial::peer_id;

corruption_config uniform_corruption(double rate) {
  corruption_config cfg;
  cfg.parent_rate = rate;
  cfg.children_rate = rate;
  cfg.mbr_rate = rate;
  cfg.flag_rate = rate;
  cfg.drop_instance_rate = rate / 2;
  cfg.fake_instance_rate = rate / 2;
  return cfg;
}

peer_id corruptor::random_peer() {
  const auto count = overlay_.live_count();
  if (count == 0) return kNoPeer;
  // One rng draw, mapped to the k-th live peer in id order: the same draw
  // sequence and pick the old snapshot-and-index version produced.
  return overlay_.nth_live(rng_.index(count));
}

std::size_t corruptor::corrupt(const corruption_config& cfg) {
  std::size_t mutations = 0;
  // Corruption scrambles state but never liveness, so visiting in place
  // sees exactly the peers a snapshot would have.
  overlay_.for_each_live([&](peer_id p) {
    auto& peer = overlay_.peer(p);
    for (const auto h : peer.instance_heights()) {
      if (rng_.chance(cfg.parent_rate)) {
        scramble_parent(p, h);
        ++mutations;
      }
      if (h > 0 && rng_.chance(cfg.children_rate)) {
        scramble_children(p, h);
        ++mutations;
      }
      if (rng_.chance(cfg.mbr_rate)) {
        scramble_mbr(p, h);
        ++mutations;
      }
      if (h > 0 && rng_.chance(cfg.flag_rate)) {
        flip_underloaded(p, h);
        ++mutations;
      }
    }
    if (rng_.chance(cfg.drop_instance_rate)) {
      drop_top_instance(p);
      ++mutations;
    }
    if (rng_.chance(cfg.fake_instance_rate)) {
      fabricate_instance(p);
      ++mutations;
    }
  });
  return mutations;
}

void corruptor::scramble_parent(peer_id p, std::size_t h) {
  auto* ins = overlay_.peer(p).find_inst(h);
  if (ins == nullptr) return;
  switch (rng_.uniform_int(0, 2)) {
    case 0: ins->parent = kNoPeer; break;
    case 1: ins->parent = p; break;  // false root claim
    default: ins->parent = random_peer(); break;
  }
}

void corruptor::scramble_children(peer_id p, std::size_t h) {
  auto* ins = overlay_.peer(p).find_inst(h);
  if (ins == nullptr || h == 0) return;
  switch (rng_.uniform_int(0, 2)) {
    case 0:  // forget a child
      if (!ins->children.empty()) {
        ins->children.erase(ins->children.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng_.index(ins->children.size())));
      }
      break;
    case 1: {  // adopt a random stranger (retry to avoid a no-op add)
      bool adopted = false;
      for (int attempt = 0; attempt < 8 && !adopted; ++attempt) {
        const auto stranger = random_peer();
        if (stranger != kNoPeer && !ins->has_child(stranger)) {
          ins->add_child(stranger);
          adopted = true;
        }
      }
      if (!adopted) ins->children.clear();
      break;
    }
    default:  // forget everything
      ins->children.clear();
      break;
  }
}

void corruptor::scramble_mbr(peer_id p, std::size_t h) {
  auto* ins = overlay_.peer(p).find_inst(h);
  if (ins == nullptr) return;
  const auto& ws = overlay_.config().workspace;
  const double x1 = rng_.uniform_real(ws.lo[0], ws.hi[0]);
  const double x2 = rng_.uniform_real(ws.lo[0], ws.hi[0]);
  const double y1 = rng_.uniform_real(ws.lo[1], ws.hi[1]);
  const double y2 = rng_.uniform_real(ws.lo[1], ws.hi[1]);
  ins->mbr = geo::make_rect2(std::min(x1, x2), std::min(y1, y2),
                             std::max(x1, x2), std::max(y1, y2));
}

void corruptor::flip_underloaded(peer_id p, std::size_t h) {
  auto* ins = overlay_.peer(p).find_inst(h);
  if (ins != nullptr) ins->underloaded = !ins->underloaded;
}

void corruptor::drop_top_instance(peer_id p) {
  auto& peer = overlay_.peer(p);
  if (peer.top() > 0) peer.erase_inst(peer.top());
}

void corruptor::fabricate_instance(peer_id p) {
  auto& peer = overlay_.peer(p);
  const auto h = peer.top() + 1;
  auto& ins = peer.ensure_inst(h);
  ins.parent = random_peer();
  ins.children.clear();
  ins.add_child(p);
  ins.add_child(random_peer());
  scramble_mbr(p, h);
}

}  // namespace drt::overlay
