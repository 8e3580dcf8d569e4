// Concentration and bias bounds for sampling without replacement
// (Lemmas 1-3 of the paper).
//
// For a sample S of size M drawn without replacement from the N records of
// D (equivalently, the first M entries of a random permutation):
//
//  * PermutationLambda computes the high-probability deviation half-width
//    lambda = beta * sqrt( M(N-M) ln(2/p) /
//                          (2(N-1/2)(1 - 1/(2 max(M, N-M)))) )
//    with beta = log2(M/(M-1)) + log2(M-1)/M, from the El-Yaniv & Pechyony
//    permutation bound (Lemma 2) applied to the (M,N)-symmetric sample
//    entropy (Lemma 3). lambda is attribute-independent.
//
//  * BiasBound computes the negative-bias term of Lemma 1:
//    b(alpha) = log2(1 + (u_alpha - 1)(N - M) / (M (N - 1))),
//    which upper-bounds H_D(alpha) - E[H_S(alpha)] >= 0.
//
// Together: H_S - lambda <= H_D <= H_S + lambda + b with probability
// >= 1 - p. Both vanish at M = N (the sample is the dataset).

#ifndef SWOPE_CORE_BOUNDS_H_
#define SWOPE_CORE_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"

namespace swope {

/// beta(M) = log2(M/(M-1)) + log2(M-1)/M, the per-swap sensitivity bound of
/// the sample entropy. Requires M >= 2 (returns +inf for M < 2, making the
/// interval vacuous, which the clamps below absorb).
double EntropySwapSensitivity(uint64_t m);

/// The deviation half-width lambda for sample size m out of n records at
/// failure probability p (per side-pair). Returns 0 when m >= n and +inf
/// when m < 2 or p is not in (0, 1).
double PermutationLambda(uint64_t n, uint64_t m, double p);

/// The Lemma 1 bias bound b for an attribute with support size u. Returns 0
/// when m >= n or n <= 1.
double BiasBound(uint32_t support, uint64_t n, uint64_t m);

/// A high-probability confidence interval for an empirical entropy, plus
/// the raw ingredients the stopping rules need.
struct EntropyInterval {
  double lower = 0.0;      ///< H lower bound, clamped to >= 0
  double upper = 0.0;      ///< H upper bound, clamped to <= log2(support)
  double lambda = 0.0;     ///< deviation half-width used
  double bias = 0.0;       ///< bias term b(alpha) used
  double sample_entropy = 0.0;  ///< H_S(alpha)

  /// Midpoint estimate H_hat = (lower + upper) / 2.
  double Estimate() const { return 0.5 * (lower + upper); }
  /// Interval width upper - lower.
  double Width() const { return upper - lower; }
};

/// Builds the Lemma 3 interval for one attribute.
/// `support_cap` bounds the true entropy from above (log2 of it clips the
/// upper bound); pass the attribute's support u_alpha, or for joint
/// entropies the bound u_bar = u1*u2 (clamped internally to at most n, the
/// number of records, since at most n distinct values can occur).
EntropyInterval MakeEntropyInterval(double sample_entropy, uint64_t support_cap,
                                    uint64_t n, uint64_t m, double p);

/// A sound Lemma 1 support for the joint of two attributes over the same
/// N records, from their exact value counts. A value of `a` that occurs
/// n_a times co-occurs with at most min(d_b, n_a) distinct values of `b`,
/// where d_b counts the b values that occur at all, and symmetrically, so
/// the number of distinct pairs in D is at most
///   min(sum_a min(d_b, n_a), sum_b min(d_a, n_b)).
/// Each sum is at most N and at most d_a * d_b <= u_a * u_b, so the cap
/// never exceeds the product support. Lemma 1's b grows with the support,
/// so the bias it gives still bounds the joint's.
uint64_t JointSupportCap(const std::vector<uint64_t>& counts_a,
                         const std::vector<uint64_t>& counts_b);

/// The degenerate interval of an entropy known exactly (a whole-column
/// count, Column::Entropy): no deviation, no bias.
inline EntropyInterval ExactEntropyInterval(double entropy) {
  return {entropy, entropy, 0.0, 0.0, entropy};
}

/// A confidence interval for a mutual information score.
struct MiInterval {
  double lower = 0.0;  ///< clamped to >= 0 (MI is non-negative)
  double upper = 0.0;
  /// Total interval slack 2*(lambda_t + lambda_a + lambda_ta) + b(a_t) +
  /// b(a) + b(a_t,a) used by the Algorithm 3 stopping rule (b' in the
  /// paper): 6*lambda + b(a_t) + b(a) + b(a_t,a) when all three entropies
  /// are sampled, 2*lambda + b(a_t,a) when both marginals are exact.
  double slack = 0.0;

  double Estimate() const { return 0.5 * (lower + upper); }
  double Width() const { return upper - lower; }
};

/// Composes the MI interval I = H(t) + H(a) - H(t,a) from the three
/// entropy intervals (Section 4.1):
///   I_lower = H_lower(t) + H_lower(a) - H_upper(t,a)
///   I_upper = min(H_upper(t), H_upper(a), H_upper(t) + H_upper(a) -
///                 H_lower(t,a))
/// (I <= min(H(t), H(a)) always). An exact marginal enters as its
/// ExactEntropyInterval, contributing neither deviation nor bias.
MiInterval MakeMiInterval(const EntropyInterval& target,
                          const EntropyInterval& candidate,
                          const EntropyInterval& joint);

/// The paper's initial sample size policy:
///   M0 = ln(h * log2(N) / p_f) * log2(N)^2 / log2(u_max)^2,
/// the Theorem 2 lower bound evaluated at the largest possible k-th score
/// (log2 u_max) and epsilon = 1. Clamped into [kMinSampleSize, N].
uint64_t ComputeM0(uint64_t n, size_t h, double failure_probability,
                   uint32_t max_support);

/// Minimum sample size ever used (keeps beta(M) finite and the schedule
/// sane).
inline constexpr uint64_t kMinSampleSize = 16;

/// i_max = ceil(log2(N / M0)) + 1: the maximum number of doubling
/// iterations, used to split the failure budget.
uint32_t MaxIterations(uint64_t n, uint64_t m0);

}  // namespace swope

#endif  // SWOPE_CORE_BOUNDS_H_
