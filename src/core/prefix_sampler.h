// PrefixSampler: serves growing prefixes of one random row permutation.
//
// A query draws a single permutation of [0, N) up front; the sample of
// size M in iteration i is the prefix order[0..M). Reusing the prefix
// across iterations is sound by the martingale argument in Section 3.1 of
// the paper, and it is what makes the incremental counters correct.

#ifndef SWOPE_CORE_PREFIX_SAMPLER_H_
#define SWOPE_CORE_PREFIX_SAMPLER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/query_options.h"
#include "src/core/shared_prefix.h"
#include "src/table/shuffle.h"

namespace swope {

/// Holds a shuffled row order (owned, or shared with other queries) and
/// tracks how much of it has been consumed.
class PrefixSampler {
 public:
  /// Shuffles [0, num_rows) deterministically from `seed`. When
  /// `sequential` is true the stored row order is used as-is instead --
  /// the paper's "sequential sampling" on columnar storage (Section 6.1),
  /// which is sound whenever the stored order is exchangeable (data
  /// shuffled once offline, or generated i.i.d.) and is much more cache
  /// friendly than per-query random access.
  PrefixSampler(uint32_t num_rows, uint64_t seed, bool sequential = false)
      : order_(std::make_shared<const std::vector<uint32_t>>(
            sequential ? IdentityOrder(num_rows)
                       : ShuffledRowOrder(num_rows, seed))) {}

  /// Adopts the order of a SharedPrefix (the engine's PermutationCache),
  /// which must be non-null; the sampler keeps it alive.
  explicit PrefixSampler(std::shared_ptr<const SharedPrefix> shared)
      : order_(shared, &shared->order()) {}

  /// Total number of rows.
  uint64_t num_rows() const { return order_->size(); }
  /// Rows consumed so far (current M).
  uint64_t consumed() const { return consumed_; }
  const std::vector<uint32_t>& order() const { return *order_; }

  /// Advances the consumed prefix to min(target_m, num_rows) and returns
  /// the [begin, end) range of newly exposed positions in order().
  /// Counters should absorb rows order()[begin..end).
  struct Range {
    uint64_t begin;
    uint64_t end;
  };
  Range GrowTo(uint64_t target_m) {
    const uint64_t begin = consumed_;
    const uint64_t target = std::min<uint64_t>(target_m, order_->size());
    if (target > consumed_) consumed_ = target;  // never rewind
    return {begin, consumed_};
  }

 private:
  static std::vector<uint32_t> IdentityOrder(uint32_t num_rows) {
    std::vector<uint32_t> order(num_rows);
    for (uint32_t i = 0; i < num_rows; ++i) order[i] = i;
    return order;
  }

  std::shared_ptr<const std::vector<uint32_t>> order_;
  uint64_t consumed_ = 0;
};

/// Builds the sampler a driver should use for `options` over a table of
/// `num_rows` rows: the engine-injected shared order when present (after
/// validating its length), otherwise a fresh per-query order.
inline Result<PrefixSampler> MakePrefixSampler(uint32_t num_rows,
                                               const QueryOptions& options) {
  if (options.shared_prefix != nullptr) {
    if (options.shared_prefix->order().size() != num_rows) {
      return Status::InvalidArgument(
          "shared_prefix order length does not match the queried table");
    }
    return PrefixSampler(options.shared_prefix);
  }
  return PrefixSampler(num_rows, options.seed, options.sequential_sampling);
}

}  // namespace swope

#endif  // SWOPE_CORE_PREFIX_SAMPLER_H_
