// Numeric helpers shared by the entropy kernels and the concentration
// bounds. All entropies in this library are measured in bits (log base 2),
// matching the paper.

#ifndef SWOPE_COMMON_MATH_H_
#define SWOPE_COMMON_MATH_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace swope {

/// x * log2(x) with the information-theoretic convention 0 * log2(0) = 0.
/// Negative inputs are a caller bug and return 0.
inline double XLog2X(double x) {
  return x > 0.0 ? x * std::log2(x) : 0.0;
}

/// log2(x) for positive x; returns 0 for x <= 0 (callers use this only for
/// counts, where x == 0 never contributes).
inline double SafeLog2(double x) { return x > 0.0 ? std::log2(x) : 0.0; }

/// Entropy (in bits) of the empirical distribution given by the
/// `num_counts` counts at `counts`, whose sum is `total`. Zero counts
/// contribute nothing; total == 0 yields an entropy of 0 by convention.
/// The pointer form serves counters in any container (the arena-backed
/// pmr vectors of src/core/ included); the vector overload is a
/// convenience for tests and the exact baselines.
double EntropyFromCounts(const uint64_t* counts, size_t num_counts,
                         uint64_t total);
double EntropyFromCounts(const std::vector<uint64_t>& counts, uint64_t total);

/// Entropy computed from the statistic sum_i n_i*log2(n_i):
///   H = log2(total) - sum_xlog2x / total.
/// EntropyFromCounts and the joint counter (src/core/pair_counter.cc)
/// both finish through this identity.
double EntropyFromXLog2XSum(double sum_xlog2x, uint64_t total);

/// Entropy (in bits) of a probability mass function. Entries <= 0 are
/// ignored. The pmf is not required to be normalized; it is normalized
/// internally.
double EntropyOfPmf(const std::vector<double>& pmf);

/// Entropy (bits) of a Bernoulli(p) variable; p outside [0,1] is clamped.
double BinaryEntropy(double p);

/// Clamps `x` into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// True when |a - b| <= tol (absolute tolerance).
inline bool NearlyEqual(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

}  // namespace swope

#endif  // SWOPE_COMMON_MATH_H_
