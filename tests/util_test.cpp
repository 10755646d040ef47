#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace drt::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  rng a(42);
  rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1);
  rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  rng a(7);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, NextDoubleInUnitInterval) {
  rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBoundsAndHitsAll) {
  rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntSingleton) {
  rng r(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(9, 9), 9);
}

TEST(Rng, UniformRealRespectsBounds) {
  rng r(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform_real(2.5, 7.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(Rng, ChanceExtremes) {
  rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  rng r(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  rng r(23);
  accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(r.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
  EXPECT_GE(acc.min(), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  rng r(29);
  accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(r.normal(10.0, 3.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.1);
}

TEST(Rng, ZipfUniformWhenExponentZero) {
  rng r(31);
  std::array<int, 4> counts{};
  for (int i = 0; i < 40000; ++i) {
    const auto v = r.zipf(4, 0.0);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 4);
    ++counts[static_cast<std::size_t>(v - 1)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  rng r(37);
  int rank1 = 0;
  int rank_rest = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto v = r.zipf(100, 1.2);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
    if (v == 1) {
      ++rank1;
    } else {
      ++rank_rest;
    }
  }
  // With s = 1.2 and n = 100, rank 1 mass is ~35%.
  EXPECT_GT(rank1, 5000);
}

TEST(Rng, ShuffleIsPermutation) {
  rng r(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, IndexWithinBounds) {
  rng r(43);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.index(5), 5u);
}

TEST(Accumulator, BasicMoments) {
  accumulator a;
  for (double x : {1.0, 2.0, 3.0, 4.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_NEAR(a.variance(), 1.25, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(Table, PrintsAlignedRowsAndCsv) {
  table t({"N", "height", "fp_rate"});
  t.add_row({table::cell(std::size_t{128}), table::cell(3), table::cell(0.023, 3)});
  t.add_row({table::cell(std::size_t{1024}), table::cell(5), table::cell(0.031, 3)});
  EXPECT_EQ(t.rows(), 2u);

  std::ostringstream pretty;
  t.print(pretty);
  EXPECT_NE(pretty.str().find("height"), std::string::npos);
  EXPECT_NE(pretty.str().find("0.023"), std::string::npos);

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_NE(csv.str().find("N,height,fp_rate"), std::string::npos);
  EXPECT_NE(csv.str().find("1024,5,0.031"), std::string::npos);
}

}  // namespace
}  // namespace drt::util
