#include "workload/workload.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"

namespace drt::workload {

using spatial::box;
using spatial::pt;

namespace {

double side(const box& ws, std::size_t dim) {
  return ws.hi[dim] - ws.lo[dim];
}

box rect_at(const box& ws, double cx, double cy, double w, double h) {
  // Clamp into the workspace, preserving the requested size when possible.
  const double x0 = std::clamp(cx - w / 2, ws.lo[0], ws.hi[0] - w);
  const double y0 = std::clamp(cy - h / 2, ws.lo[1], ws.hi[1] - h);
  return geo::make_rect2(x0, y0, x0 + w, y0 + h);
}

std::vector<box> uniform_rects(std::size_t n, util::rng& rng,
                               const subscription_params& p) {
  std::vector<box> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = side(p.workspace, 0) *
                     rng.uniform_real(p.min_side_frac, p.max_side_frac);
    const double h = side(p.workspace, 1) *
                     rng.uniform_real(p.min_side_frac, p.max_side_frac);
    const double cx = rng.uniform_real(p.workspace.lo[0], p.workspace.hi[0]);
    const double cy = rng.uniform_real(p.workspace.lo[1], p.workspace.hi[1]);
    out.push_back(rect_at(p.workspace, cx, cy, w, h));
  }
  return out;
}

std::vector<box> clustered_rects(std::size_t n, util::rng& rng,
                                 const subscription_params& p) {
  std::vector<pt> centers;
  for (std::size_t c = 0; c < p.clusters; ++c) {
    centers.push_back(
        {{rng.uniform_real(p.workspace.lo[0], p.workspace.hi[0]),
          rng.uniform_real(p.workspace.lo[1], p.workspace.hi[1])}});
  }
  std::vector<box> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = centers[rng.index(centers.size())];
    const double sx = side(p.workspace, 0) * p.cluster_spread;
    const double sy = side(p.workspace, 1) * p.cluster_spread;
    const double w = side(p.workspace, 0) *
                     rng.uniform_real(p.min_side_frac, p.max_side_frac);
    const double h = side(p.workspace, 1) *
                     rng.uniform_real(p.min_side_frac, p.max_side_frac);
    out.push_back(rect_at(p.workspace, rng.normal(c[0], sx),
                          rng.normal(c[1], sy), w, h));
  }
  return out;
}

std::vector<box> zipf_sized_rects(std::size_t n, util::rng& rng,
                                  const subscription_params& p) {
  // Few huge filters, many tiny ones: the Zipf draw concentrates on low
  // ranks, which map to the *smallest* sides, so broad filters are rare
  // and the bulk of the population is tiny.
  std::vector<box> out;
  out.reserve(n);
  const auto dn = static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto rank = static_cast<double>(rng.zipf(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(n)),
        p.zipf_exponent));
    const double grow = std::pow(rank / dn, 1.5);  // rare high ranks: big
    const double frac = std::clamp(p.max_side_frac * 4 * grow,
                                   p.min_side_frac, 1.0);
    const double w = side(p.workspace, 0) * frac;
    const double h = side(p.workspace, 1) * frac;
    const double cx = rng.uniform_real(p.workspace.lo[0], p.workspace.hi[0]);
    const double cy = rng.uniform_real(p.workspace.lo[1], p.workspace.hi[1]);
    out.push_back(rect_at(p.workspace, cx, cy, w, h));
  }
  return out;
}

std::vector<box> nested_rects(std::size_t n, util::rng& rng,
                              const subscription_params& p) {
  // Containment chains: each chain starts from a broad filter and shrinks
  // strictly inside the previous one — the workload the containment-
  // awareness properties (3.1/3.2) are about.
  std::vector<box> out;
  out.reserve(n);
  while (out.size() < n) {
    double w = side(p.workspace, 0) *
               rng.uniform_real(p.max_side_frac, p.max_side_frac * 3);
    double h = side(p.workspace, 1) *
               rng.uniform_real(p.max_side_frac, p.max_side_frac * 3);
    double cx = rng.uniform_real(p.workspace.lo[0], p.workspace.hi[0]);
    double cy = rng.uniform_real(p.workspace.lo[1], p.workspace.hi[1]);
    box current = rect_at(p.workspace, cx, cy, w, h);
    for (std::size_t k = 0; k < p.chain_length && out.size() < n; ++k) {
      out.push_back(current);
      // Shrink strictly inside, drifting the center a little.
      w *= rng.uniform_real(0.4, 0.7);
      h *= rng.uniform_real(0.4, 0.7);
      const double max_dx = (current.hi[0] - current.lo[0] - w) / 2;
      const double max_dy = (current.hi[1] - current.lo[1] - h) / 2;
      cx = (current.lo[0] + current.hi[0]) / 2 +
           rng.uniform_real(-max_dx, max_dx);
      cy = (current.lo[1] + current.hi[1]) / 2 +
           rng.uniform_real(-max_dy, max_dy);
      current = geo::make_rect2(cx - w / 2, cy - h / 2, cx + w / 2,
                                cy + h / 2);
    }
  }
  return out;
}

}  // namespace

std::vector<box> make_subscriptions(subscription_family family, std::size_t n,
                                    util::rng& rng,
                                    const subscription_params& params) {
  DRT_EXPECT(n > 0);
  switch (family) {
    case subscription_family::uniform:
      return uniform_rects(n, rng, params);
    case subscription_family::clustered:
      return clustered_rects(n, rng, params);
    case subscription_family::zipf_sized:
      return zipf_sized_rects(n, rng, params);
    case subscription_family::nested:
      return nested_rects(n, rng, params);
    case subscription_family::mixed: {
      std::vector<box> out;
      const std::size_t quarter = std::max<std::size_t>(1, n / 4);
      for (const auto f :
           {subscription_family::uniform, subscription_family::clustered,
            subscription_family::zipf_sized}) {
        const auto part = make_subscriptions(f, quarter, rng, params);
        out.insert(out.end(), part.begin(), part.end());
      }
      while (out.size() < n) {
        const auto part = make_subscriptions(subscription_family::nested,
                                             n - out.size(), rng, params);
        out.insert(out.end(), part.begin(), part.end());
      }
      out.resize(n);
      rng.shuffle(out);
      return out;
    }
  }
  return {};
}

pt make_event_point(event_family family, util::rng& rng,
                    const box& workspace, const std::vector<box>& subs,
                    double hotspot_spread) {
  switch (family) {
    case event_family::uniform:
      return {{rng.uniform_real(workspace.lo[0], workspace.hi[0]),
               rng.uniform_real(workspace.lo[1], workspace.hi[1])}};
    case event_family::hotspot: {
      // Deterministic hot spots at 1/4 and 3/4 of the workspace diagonal.
      const double fx = rng.chance(0.5) ? 0.25 : 0.75;
      const double sx = (workspace.hi[0] - workspace.lo[0]) * hotspot_spread;
      const double sy = (workspace.hi[1] - workspace.lo[1]) * hotspot_spread;
      const double cx =
          workspace.lo[0] + (workspace.hi[0] - workspace.lo[0]) * fx;
      const double cy =
          workspace.lo[1] + (workspace.hi[1] - workspace.lo[1]) * fx;
      return {{std::clamp(rng.normal(cx, sx), workspace.lo[0],
                          workspace.hi[0]),
               std::clamp(rng.normal(cy, sy), workspace.lo[1],
                          workspace.hi[1])}};
    }
    case event_family::matching: {
      DRT_EXPECT(!subs.empty());
      const auto& s = subs[rng.index(subs.size())];
      return {{rng.uniform_real(s.lo[0], s.hi[0]),
               rng.uniform_real(s.lo[1], s.hi[1])}};
    }
  }
  return {};
}

}  // namespace drt::workload
