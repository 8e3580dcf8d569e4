// SWOPE-Filtering on empirical mutual information (Algorithm 4 of the
// paper).
//
// Same three classification rules as the entropy filter (Algorithm 2),
// applied to the MI interval [I_lower, I_upper] of each candidate against
// the target attribute:
//   1. I_upper - I_lower < 2*eps*eta -> decide by the midpoint estimate
//   2. I_lower >= (1-eps)*eta        -> accept
//   3. I_upper <  (1+eps)*eta        -> reject
// The MI interval takes exact marginals and samples only the joint (see
// swope_topk_mi.h), with failure budget p_f / (i_max * (h-1)).

#ifndef SWOPE_CORE_SWOPE_FILTER_MI_H_
#define SWOPE_CORE_SWOPE_FILTER_MI_H_

#include <cstddef>

#include "src/common/result.h"
#include "src/core/query_options.h"
#include "src/core/query_result.h"
#include "src/table/table.h"

namespace swope {

/// Runs Algorithm 4 with threshold `eta` (must be > 0) against the column
/// index `target`. The result lists accepted attributes in ascending
/// column-index order.
Result<FilterResult> SwopeFilterMi(const Table& table, size_t target,
                                   double eta,
                                   const QueryOptions& options = {});

}  // namespace swope

#endif  // SWOPE_CORE_SWOPE_FILTER_MI_H_
