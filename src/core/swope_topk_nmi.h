// Extension: approximate top-k on NORMALIZED mutual information,
//   NMI(a_t, a) = I(a_t, a) / sqrt(H(a_t) * H(a)),
// the symmetric-uncertainty-style score used by NMI feature selection
// (Estevez et al., reference [12] of the paper). The paper itself stops
// at raw MI; this module extends its machinery to the normalized score:
// the NMI confidence interval is composed from the MI interval and the
// two marginal entropy intervals,
//   NMI_lower = I_lower / sqrt(H_upper(t) * H_upper(a))
//   NMI_upper = I_upper / sqrt(H_lower(t) * H_lower(a)),
// clamped into [0, 1]; exact-path marginals are exact, so both
// denominators are sqrt(H(t) * H(a)). The stopping rule is the generalized
// relative-width rule: stop once every attribute in the current top-k set
// has (upper - lower) <= eps * upper, which implies both Definition 5
// conditions by the same argument as Theorem 1.

#ifndef SWOPE_CORE_SWOPE_TOPK_NMI_H_
#define SWOPE_CORE_SWOPE_TOPK_NMI_H_

#include <cstddef>

#include "src/common/result.h"
#include "src/core/query_options.h"
#include "src/core/query_result.h"
#include "src/table/table.h"

namespace swope {

/// Exact NMI between two columns (0 when either marginal entropy is 0).
Result<double> ExactNormalizedMi(const Column& a, const Column& b);

/// Exact NMI of every column against `target` (target slot = 0).
Result<std::vector<double>> ExactNormalizedMis(const Table& table,
                                               size_t target);

/// Approximate top-k on NMI against column `target`; same contract as
/// SwopeTopKMi.
Result<TopKResult> SwopeTopKNmi(const Table& table, size_t target, size_t k,
                                const QueryOptions& options = {});

}  // namespace swope

#endif  // SWOPE_CORE_SWOPE_TOPK_NMI_H_
