// SWOPE-Top-k on empirical mutual information (Algorithm 3 of the paper).
//
// Given a target attribute a_t, scores every other attribute a by
// I(a_t, a) = H(a_t) + H(a) - H(a_t, a) and returns an approximate top-k
// answer per Definition 5. The paper gives each of the three entropies a
// Lemma 3 interval; here the marginals H(a_t) and H(a) are exact (each
// column's cached counts), and only the joint entropy gets a Lemma 3
// interval, whose bias uses the capped support JointSupportCap
// (src/core/bounds.h) in place of u_t * u_a. The MI interval
//     [H(a_t) + H(a) - H_upper(a_t, a),
//      min(H(a_t), H(a), H(a_t) + H(a) - H_lower(a_t, a))]
// has slack b' = 2*lambda + b(a_t, a), and the stopping rule is
//     (I_upper(a'_k) - b'_max) / I_upper(a'_k) >= 1 - eps.
// The per-application failure budget is p_f / (i_max * (h-1)): one
// sampled bound per candidate per iteration (more when sketched columns
// keep sampled marginals; docs/THEORY.md section 3).

#ifndef SWOPE_CORE_SWOPE_TOPK_MI_H_
#define SWOPE_CORE_SWOPE_TOPK_MI_H_

#include <cstddef>

#include "src/common/result.h"
#include "src/core/query_options.h"
#include "src/core/query_result.h"
#include "src/table/table.h"

namespace swope {

/// Runs Algorithm 3. `target` is the column index of a_t; `k` is clamped
/// to h - 1. The result lists attributes in descending upper-bound order.
Result<TopKResult> SwopeTopKMi(const Table& table, size_t target, size_t k,
                               const QueryOptions& options = {});

}  // namespace swope

#endif  // SWOPE_CORE_SWOPE_TOPK_MI_H_
