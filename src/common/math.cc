#include "src/common/math.h"

namespace swope {

double EntropyFromCounts(const uint64_t* counts, size_t num_counts,
                         uint64_t total) {
  if (total == 0) return 0.0;
  double sum_xlog2x = 0.0;
  for (size_t i = 0; i < num_counts; ++i) {
    if (counts[i] > 0) sum_xlog2x += XLog2X(static_cast<double>(counts[i]));
  }
  return EntropyFromXLog2XSum(sum_xlog2x, total);
}

double EntropyFromCounts(const std::vector<uint64_t>& counts, uint64_t total) {
  return EntropyFromCounts(counts.data(), counts.size(), total);
}

double EntropyFromXLog2XSum(double sum_xlog2x, uint64_t total) {
  if (total == 0) return 0.0;
  const double n = static_cast<double>(total);
  double h = std::log2(n) - sum_xlog2x / n;
  // Floating point noise can push an exactly-zero entropy slightly negative.
  return h < 0.0 ? 0.0 : h;
}

double EntropyOfPmf(const std::vector<double>& pmf) {
  double mass = 0.0;
  for (double p : pmf) {
    if (p > 0.0) mass += p;
  }
  if (mass <= 0.0) return 0.0;
  double h = 0.0;
  for (double p : pmf) {
    if (p > 0.0) {
      const double q = p / mass;
      h -= XLog2X(q);
    }
  }
  return h < 0.0 ? 0.0 : h;
}

double BinaryEntropy(double p) {
  p = Clamp(p, 0.0, 1.0);
  return -XLog2X(p) - XLog2X(1.0 - p);
}

}  // namespace swope
