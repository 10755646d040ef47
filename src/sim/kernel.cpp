#include "sim/kernel.h"

#include <algorithm>
#include <thread>

#include "util/expect.h"

namespace drt::sim {

kernel::kernel(kernel_config config) : config_(config) {
  DRT_EXPECT(config_.shards >= 1);
  DRT_EXPECT(config_.window > 0.0);
  sims_.assign(config_.shards, nullptr);
  inbox_.resize(config_.shards);
}

void kernel::attach(std::size_t shard, simulator& sim) {
  DRT_EXPECT(shard < sims_.size());
  sims_[shard] = &sim;
}

simulator& kernel::shard(std::size_t i) {
  DRT_EXPECT(i < sims_.size() && sims_[i] != nullptr);
  return *sims_[i];
}

void kernel::post(std::size_t src, std::size_t dst, std::uint64_t bytes,
                  std::function<void(simulator&)> deliver) {
  DRT_EXPECT(src < sims_.size() && dst < sims_.size());
  ++metrics_.cross_messages;
  metrics_.cross_bytes += bytes;
  inbox_[dst].push_back({bytes, std::move(deliver)});
}

bool kernel::flush() {
  bool any = false;
  for (std::size_t dst = 0; dst < inbox_.size(); ++dst) {
    for (auto& inj : inbox_[dst]) {
      inj.deliver(shard(dst));
      any = true;
    }
    inbox_[dst].clear();
  }
  return any;
}

void kernel::run_pass(const std::function<void(std::size_t)>& fn) {
  if (!config_.parallel || sims_.size() == 1) {
    for (std::size_t i = 0; i < sims_.size(); ++i) fn(i);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(sims_.size());
  for (std::size_t i = 0; i < sims_.size(); ++i) {
    workers.emplace_back([&fn, i] { fn(i); });
  }
  for (auto& w : workers) w.join();
}

void kernel::run_pass_on(const std::vector<std::size_t>& idx,
                         const std::function<void(std::size_t)>& fn) {
  if (!config_.parallel || idx.size() <= 1) {
    for (const auto i : idx) fn(i);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(idx.size());
  for (const auto i : idx) workers.emplace_back([&fn, i] { fn(i); });
  for (auto& w : workers) w.join();
}

std::uint64_t kernel::settle(std::uint64_t max_steps) {
  if (sims_.size() == 1) {
    // Single shard: any buffered injections run now, then the plain
    // drain — byte-identical to calling run_steps() directly.
    flush();
    return shard(0).run_steps(max_steps);
  }
  std::vector<std::uint64_t> steps(sims_.size(), 0);
  std::uint64_t total = 0;
  while (true) {
    flush();
    run_pass([&](std::size_t i) { steps[i] = shard(i).run_steps(max_steps); });
    ++metrics_.barriers;
    for (const auto s : steps) total += s;
    bool pending = false;
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      pending = pending || shard(i).pending_work() > 0 || !inbox_[i].empty();
    }
    if (!pending) return total;
  }
}

void kernel::advance(sim_time dt) {
  if (sims_.size() == 1) {
    flush();
    auto& s = shard(0);
    s.run_until(s.now() + dt);
    ++metrics_.windows;
    return;
  }
  // Each shard keeps its own clock (settle() drains stop at different
  // times); windows are lockstep *offsets* from each shard's start.
  std::vector<sim_time> start(sims_.size(), 0.0);
  for (std::size_t i = 0; i < sims_.size(); ++i) start[i] = shard(i).now();
  sim_time done = 0.0;
  while (done < dt) {
    const sim_time step = std::min(config_.window, dt - done);
    done += step;
    flush();
    // Dispatch a worker only where an event is actually due inside the
    // window; an idle shard just gets its clock moved (one queue peek).
    // This is what makes a quiescent forest cheap at a stabilize
    // sweep_stride K > 1: parked timers push next_event_time() K periods
    // out, so clean shards fall through to the inline branch.
    active_scratch_.clear();
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      if (shard(i).next_event_time() <= start[i] + done) {
        active_scratch_.push_back(i);
      } else {
        shard(i).run_until(start[i] + done);
        ++metrics_.shard_windows_idle;
      }
    }
    run_pass_on(active_scratch_,
                [&](std::size_t i) { shard(i).run_until(start[i] + done); });
    ++metrics_.windows;
    ++metrics_.barriers;
  }
}

}  // namespace drt::sim
