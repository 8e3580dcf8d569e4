// The paper's sampling baselines: EntropyRank and EntropyFilter (Wang &
// Ding, KDD 2019; Section 2.2 of the paper) and their extensions to
// empirical mutual information, the MI top-k and filtering competitors.
//
// Each returns the EXACT answer. The rank variants keep growing the sample
// until the k-th largest lower bound is no smaller than the (k+1)-th
// largest upper bound, so their cost scales with 1/Delta^2 where Delta is
// the gap between the k-th and (k+1)-th scores. The filter variants accept
// an attribute only once its lower bound reaches eta and reject it only
// once its upper bound drops below eta, so their cost scales with
// 1/delta^2 where delta is the gap between a score and the threshold.
//
// They run on SWOPE's sampling driver with SWOPE's scorers and differ from
// SWOPE only in the stopping rule, so measured differences isolate the
// stopping rules, mirroring the paper's comparison. `options.epsilon` is
// ignored (the answer is exact), and every column is counted exactly
// whatever `options.sketch_epsilon` says.

#ifndef SWOPE_CORE_SAMPLING_BASELINES_H_
#define SWOPE_CORE_SAMPLING_BASELINES_H_

#include <cstddef>

#include "src/common/result.h"
#include "src/core/query_options.h"
#include "src/core/query_result.h"
#include "src/table/table.h"

namespace swope {

/// Runs EntropyRank. Items are sorted by descending lower bound at
/// termination (ties by ascending column index).
Result<TopKResult> EntropyRankTopK(const Table& table, size_t k,
                                   const QueryOptions& options = {});

/// Runs EntropyFilter with threshold `eta`. Items are in ascending
/// column-index order.
Result<FilterResult> EntropyFilterQuery(const Table& table, double eta,
                                        const QueryOptions& options = {});

/// Runs the exact-answer MI top-k baseline against column `target`. Items
/// are sorted by descending lower bound at termination (ties by ascending
/// column index).
Result<TopKResult> MiRankTopK(const Table& table, size_t target, size_t k,
                              const QueryOptions& options = {});

/// Runs the exact-answer MI filtering baseline against column `target`
/// with threshold `eta`. Items are in ascending column-index order.
Result<FilterResult> MiFilterQuery(const Table& table, size_t target,
                                   double eta,
                                   const QueryOptions& options = {});

}  // namespace swope

#endif  // SWOPE_CORE_SAMPLING_BASELINES_H_
