#include <gtest/gtest.h>

#include <algorithm>

#include "workload/workload.h"

namespace drt::workload {
namespace {

const spatial::box kWs = geo::make_rect2(0, 0, 1000, 1000);

subscription_params params() {
  subscription_params p;
  p.workspace = kWs;
  return p;
}

class FamilyTest : public ::testing::TestWithParam<subscription_family> {};

TEST_P(FamilyTest, GeneratesRequestedCountInsideWorkspace) {
  util::rng rng(5);
  const auto subs = make_subscriptions(GetParam(), 200, rng, params());
  ASSERT_EQ(subs.size(), 200u);
  for (const auto& s : subs) {
    EXPECT_FALSE(s.is_empty());
    EXPECT_TRUE(kWs.contains(s)) << s.to_string();
    EXPECT_GT(s.area(), 0.0);
  }
}

TEST_P(FamilyTest, DeterministicForSameSeed) {
  util::rng a(9);
  util::rng b(9);
  const auto x = make_subscriptions(GetParam(), 50, a, params());
  const auto y = make_subscriptions(GetParam(), 50, b, params());
  EXPECT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyTest,
                         ::testing::ValuesIn(all_subscription_families()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Workload, NestedFamilyProducesContainmentChains) {
  util::rng rng(11);
  const auto subs =
      make_subscriptions(subscription_family::nested, 60, rng, params());
  std::size_t contained_pairs = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    for (std::size_t j = 0; j < subs.size(); ++j) {
      if (i != j && subs[i].contains(subs[j])) ++contained_pairs;
    }
  }
  // Chains of length 6 yield at least (6 choose 2) pairs per chain.
  EXPECT_GT(contained_pairs, 60u);
}

TEST(Workload, ZipfFamilyHasSkewedAreas) {
  util::rng rng(13);
  const auto subs =
      make_subscriptions(subscription_family::zipf_sized, 300, rng, params());
  std::vector<double> areas;
  for (const auto& s : subs) areas.push_back(s.area());
  std::sort(areas.begin(), areas.end());
  // Top decile should dwarf the median.
  EXPECT_GT(areas[areas.size() - areas.size() / 10], 10 * areas[areas.size() / 2]);
}

TEST(Workload, UniformEventsInWorkspace) {
  util::rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const auto p = make_event_point(event_family::uniform, rng, kWs);
    EXPECT_TRUE(kWs.contains(p));
  }
}

TEST(Workload, MatchingEventsActuallyMatch) {
  util::rng rng(19);
  const auto subs =
      make_subscriptions(subscription_family::uniform, 50, rng, params());
  for (int i = 0; i < 300; ++i) {
    const auto p = make_event_point(event_family::matching, rng, kWs, subs);
    bool matched = false;
    for (const auto& s : subs) {
      if (s.contains(p)) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched);
  }
}

TEST(Workload, HotspotEventsConcentrate) {
  util::rng rng(23);
  std::size_t near_hotspots = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const auto p = make_event_point(event_family::hotspot, rng, kWs);
    EXPECT_TRUE(kWs.contains(p));
    const bool near_a = std::abs(p[0] - 250) < 150 && std::abs(p[1] - 250) < 150;
    const bool near_b = std::abs(p[0] - 750) < 150 && std::abs(p[1] - 750) < 150;
    if (near_a || near_b) ++near_hotspots;
  }
  EXPECT_GT(near_hotspots, n * 8 / 10);
}

}  // namespace
}  // namespace drt::workload
