#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double ExactPercentile(std::vector<double> samples, double quantile) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(quantile * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench
