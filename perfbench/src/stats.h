// Exact order statistics over raw per-op samples.
//
// Percentiles come from the samples themselves, never from a log-bucket
// histogram (obs::histogram's quantiles move in 2^(1/4) steps, ~19 %,
// which is wider than any bound this benchmark sets).
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a percentile before it is
/// reported; with fewer, the tail is a handful of outliers, not a
/// percentile.
inline constexpr std::size_t kMinBeyond = 10;

struct percentile {
  double value = 0.0;       ///< nearest-rank order statistic
  std::size_t samples = 0;  ///< sample count it was taken from
  std::size_t beyond = 0;   ///< samples ranked above it
  bool reported = false;    ///< beyond >= kMinBeyond
};

/// Nearest-rank q-quantile (0 < q < 1) of `samples`: the value at rank
/// ceil(q * n).  Reordering the vector is the only side effect.
percentile exact_percentile(std::vector<double>& samples, double q);

/// Median of a small set (mean of the middle pair for even sizes).
double median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
