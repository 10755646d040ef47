#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace drt::util {

void accumulator::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double accumulator::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double accumulator::stddev() const { return std::sqrt(variance()); }

}  // namespace drt::util
