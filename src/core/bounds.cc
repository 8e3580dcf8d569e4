#include "src/core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/math.h"

namespace swope {

double EntropySwapSensitivity(uint64_t m) {
  if (m < 2) return std::numeric_limits<double>::infinity();
  const double md = static_cast<double>(m);
  return std::log2(md / (md - 1.0)) + std::log2(md - 1.0) / md;
}

double PermutationLambda(uint64_t n, uint64_t m, double p) {
  if (m >= n) return 0.0;
  if (m < 2 || !(p > 0.0) || !(p < 1.0)) {
    return std::numeric_limits<double>::infinity();
  }
  const double beta = EntropySwapSensitivity(m);
  const double md = static_cast<double>(m);
  const double nd = static_cast<double>(n);
  const double max_side = static_cast<double>(std::max(m, n - m));
  const double numerator = md * (nd - md) * std::log(2.0 / p);
  const double denominator =
      2.0 * (nd - 0.5) * (1.0 - 1.0 / (2.0 * max_side));
  return beta * std::sqrt(numerator / denominator);
}

double BiasBound(uint32_t support, uint64_t n, uint64_t m) {
  if (m >= n || n <= 1 || m == 0) {
    // m == 0 with n > 0 would make the ratio infinite; the interval clamp
    // to [0, log2(u)] below renders the bound vacuous anyway, and the
    // algorithms never evaluate bounds before sampling.
    return m == 0 && n > m ? std::numeric_limits<double>::infinity() : 0.0;
  }
  const double u = static_cast<double>(support);
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(m);
  return std::log2(1.0 + (u - 1.0) * (nd - md) / (md * (nd - 1.0)));
}

EntropyInterval MakeEntropyInterval(double sample_entropy,
                                    uint64_t support_cap, uint64_t n,
                                    uint64_t m, double p) {
  EntropyInterval interval;
  interval.sample_entropy = sample_entropy;
  interval.lambda = PermutationLambda(n, m, p);
  // At most n distinct values can appear in n records, so the entropy of
  // any attribute (or attribute pair) is capped by log2(min(u, n)).
  const uint64_t effective_support = std::max<uint64_t>(
      1, std::min<uint64_t>(support_cap, std::max<uint64_t>(n, 1)));
  interval.bias =
      BiasBound(static_cast<uint32_t>(
                    std::min<uint64_t>(effective_support, 0xffffffffULL)),
                n, m);
  const double cap = std::log2(static_cast<double>(effective_support));
  interval.lower = Clamp(sample_entropy - interval.lambda, 0.0, cap);
  const double raw_upper = sample_entropy + interval.lambda + interval.bias;
  interval.upper = Clamp(raw_upper, interval.lower, cap);
  return interval;
}

namespace {

// sum_v min(n_v, limit) over one column's counts.
uint64_t SumOfMins(const std::vector<uint64_t>& counts, uint64_t limit) {
  uint64_t sum = 0;
  for (uint64_t count : counts) sum += std::min(count, limit);
  return sum;
}

uint64_t Occurring(const std::vector<uint64_t>& counts) {
  return static_cast<uint64_t>(std::count_if(
      counts.begin(), counts.end(), [](uint64_t count) { return count > 0; }));
}

}  // namespace

uint64_t JointSupportCap(const std::vector<uint64_t>& counts_a,
                         const std::vector<uint64_t>& counts_b) {
  return std::min(SumOfMins(counts_a, Occurring(counts_b)),
                  SumOfMins(counts_b, Occurring(counts_a)));
}

MiInterval MakeMiInterval(const EntropyInterval& target,
                          const EntropyInterval& candidate,
                          const EntropyInterval& joint) {
  MiInterval interval;
  const double raw_lower = target.lower + candidate.lower - joint.upper;
  const double raw_upper =
      std::min({target.upper, candidate.upper,
                target.upper + candidate.upper - joint.lower});
  interval.lower = std::max(0.0, raw_lower);
  interval.upper = std::max(interval.lower, raw_upper);
  interval.slack = 2.0 * target.lambda + 2.0 * candidate.lambda +
                   2.0 * joint.lambda + target.bias + candidate.bias +
                   joint.bias;
  return interval;
}

uint64_t ComputeM0(uint64_t n, size_t h, double failure_probability,
                   uint32_t max_support) {
  if (n == 0) return 0;
  const double nd = static_cast<double>(n);
  const double log2n = std::max(1.0, std::log2(nd));
  const double hd = std::max<double>(1.0, static_cast<double>(h));
  const double pf = Clamp(failure_probability, 1e-300, 0.5);
  const double log2u =
      std::max(1.0, std::log2(static_cast<double>(std::max(2U, max_support))));
  const double m0 =
      std::log(hd * log2n / pf) * log2n * log2n / (log2u * log2u);
  const uint64_t clamped =
      static_cast<uint64_t>(std::llround(std::max(m0, 0.0)));
  return std::min<uint64_t>(n, std::max<uint64_t>(kMinSampleSize, clamped));
}

uint32_t MaxIterations(uint64_t n, uint64_t m0) {
  if (m0 == 0 || m0 >= n) return 1;
  const double ratio = static_cast<double>(n) / static_cast<double>(m0);
  return static_cast<uint32_t>(std::ceil(std::log2(ratio))) + 1;
}

}  // namespace swope
