// Order statistics for the benchmark's latency and set-up figures.

#ifndef SWOPE_PERFBENCH_HARNESS_STATS_H_
#define SWOPE_PERFBENCH_HARNESS_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank index of quantile `q` in a sorted sample of `n`: the
/// ceil(q * n)-th smallest value, so n - rank samples lie beyond it
/// (10 for q = 0.95 once n >= 200).
inline size_t PercentileRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[PercentileRank(values.size(), q) - 1];
}

/// Median with the usual midpoint for even sizes (0 when empty).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench

#endif  // SWOPE_PERFBENCH_HARNESS_STATS_H_
