#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

percentile exact_percentile(std::vector<double>& samples, double q) {
  percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  p.value = *nth;
  p.beyond = samples.size() - rank;
  p.reported = p.beyond >= kMinBeyond;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
