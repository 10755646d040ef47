// Streaming statistics used by the experiment harnesses.
#ifndef DRT_UTIL_STATS_H
#define DRT_UTIL_STATS_H

#include <cstddef>

namespace drt::util {

/// Welford streaming accumulator: O(1) memory mean/variance/min/max.
class accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace drt::util

#endif  // DRT_UTIL_STATS_H
