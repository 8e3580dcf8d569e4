// Result types returned by the query algorithms (SWOPE and baselines).

#ifndef SWOPE_CORE_QUERY_RESULT_H_
#define SWOPE_CORE_QUERY_RESULT_H_

#include <algorithm>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <vector>

namespace swope {

/// One attribute in a query answer, with the bound state at termination.
struct AttributeScore {
  /// Column index in the queried table.
  size_t index = 0;
  /// Column name.
  std::string name;
  /// Point estimate of the score (midpoint of the confidence interval;
  /// exact value for the Exact baseline and for M = N terminations).
  double estimate = 0.0;
  /// Confidence interval at termination.
  double lower = 0.0;
  double upper = 0.0;
};

/// Cost accounting for one query execution.
struct QueryStats {
  /// Sample size M when the algorithm stopped.
  uint64_t final_sample_size = 0;
  /// Initial sample size M0 used.
  uint64_t initial_sample_size = 0;
  /// Number of bound-evaluation iterations executed.
  uint32_t iterations = 0;
  /// Attribute values and value pairs absorbed (an MI candidate absorbs
  /// one of each per sampled row); the algorithm's dominant cost, in the
  /// paper's unit, comparable across SWOPE / baselines / Exact. An exact
  /// MI candidate physically increments only its joint counter (its
  /// marginal entropy is exact) but is still charged both.
  uint64_t cells_scanned = 0;
  /// Candidates still undecided at termination (0 for filtering queries
  /// that classified everything).
  size_t candidates_remaining = 0;
  /// Candidates scored through the sketch-backed frequency path (support
  /// above QueryOptions::sketch_threshold with sketches enabled); 0 means
  /// the query ran entirely on exact counters. See docs/SKETCH.md.
  size_t sketch_candidates = 0;
  /// True when the algorithm had to sample every record (M reached N).
  bool exhausted_dataset = false;
};

/// Answer to a top-k query: `items` sorted by descending score ordering
/// criterion (upper bound for SWOPE, exact score for baselines).
///
/// `items` is a pmr vector so SWOPE queries can assemble the answer in
/// the caller's QueryOptions::memory resource (null memory behaves like
/// a plain std::vector). An arena-backed result is valid only until the
/// arena rewinds; copy it (copies land on the global heap) to keep it
/// longer -- the engine's ResultCache does exactly that.
struct TopKResult {
  std::pmr::vector<AttributeScore> items;
  QueryStats stats;
};

/// Answer to a filtering query: `items` in ascending column-index order.
/// Memory contract as TopKResult.
struct FilterResult {
  std::pmr::vector<AttributeScore> items;
  QueryStats stats;

  /// True when column `index` is in the answer set. Binary search over
  /// the ascending-index invariant above.
  bool Contains(size_t index) const {
    auto it = std::lower_bound(
        items.begin(), items.end(), index,
        [](const AttributeScore& item, size_t i) { return item.index < i; });
    return it != items.end() && it->index == index;
  }
};

}  // namespace swope

#endif  // SWOPE_CORE_QUERY_RESULT_H_
