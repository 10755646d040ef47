// Synthetic workload generators.
//
// The paper's experimental claims ("the false positive rate is in the
// order of 2-3% with most workloads", §4) reference workloads in the
// unavailable companion technical report; these generators provide the
// standard families used by the content-based pub/sub literature so the
// claims can be swept across plausible workloads (DESIGN.md §2).
#ifndef DRT_WORKLOAD_WORKLOAD_H
#define DRT_WORKLOAD_WORKLOAD_H

#include <cstddef>
#include <string>
#include <vector>

#include "spatial/types.h"
#include "util/rng.h"

namespace drt::workload {

enum class subscription_family {
  uniform,     ///< centers and sides uniform over the workspace
  clustered,   ///< centers drawn around a few interest hot spots
  zipf_sized,  ///< few huge filters, many tiny ones (Zipf areas)
  nested,      ///< chains of strictly contained filters
  mixed,       ///< 1/4 of each of the above
};

inline const char* to_string(subscription_family f) {
  switch (f) {
    case subscription_family::uniform: return "uniform";
    case subscription_family::clustered: return "clustered";
    case subscription_family::zipf_sized: return "zipf";
    case subscription_family::nested: return "nested";
    case subscription_family::mixed: return "mixed";
  }
  return "?";
}

inline const std::vector<subscription_family>& all_subscription_families() {
  static const std::vector<subscription_family> families = {
      subscription_family::uniform, subscription_family::clustered,
      subscription_family::zipf_sized, subscription_family::nested,
      subscription_family::mixed};
  return families;
}

struct subscription_params {
  spatial::box workspace = geo::make_rect2(0, 0, 1000, 1000);
  double min_side_frac = 0.01;  ///< min side length / workspace side
  double max_side_frac = 0.15;  ///< max side length / workspace side
  std::size_t clusters = 8;     ///< clustered: number of hot spots
  double cluster_spread = 0.05; ///< clustered: stddev / workspace side
  double zipf_exponent = 1.1;   ///< zipf_sized: area skew
  std::size_t chain_length = 6; ///< nested: filters per containment chain
};

/// Generate `n` subscription rectangles of the given family.
std::vector<spatial::box> make_subscriptions(subscription_family family,
                                             std::size_t n, util::rng& rng,
                                             const subscription_params& params = {});

enum class event_family {
  uniform,   ///< uniform points over the workspace
  hotspot,   ///< points around a few centers (biased workload of §3.2)
  matching,  ///< points drawn inside a random subscription (high match rate)
};

inline const char* to_string(event_family f) {
  switch (f) {
    case event_family::uniform: return "uniform";
    case event_family::hotspot: return "hotspot";
    case event_family::matching: return "matching";
  }
  return "?";
}

/// One event point.  For `matching`, `subs` must be non-empty.
spatial::pt make_event_point(event_family family, util::rng& rng,
                             const spatial::box& workspace,
                             const std::vector<spatial::box>& subs = {},
                             double hotspot_spread = 0.05);

}  // namespace drt::workload

#endif  // DRT_WORKLOAD_WORKLOAD_H
