// PairCounter: joint-value sample counts for a column pair, the
// mutual-information analogue of FrequencyCounter.
//
// Holds only the counts of (code_a, code_b) pairs: the per-row hot path is
// one increment. The sample joint entropy H_S(a, b) is computed from the
// counts when a round's bounds are evaluated. That pass sums
// m_{ij} log2 m_{ij} in 64.64 fixed point, so the result does not depend on the order in which
// the layout visits its keys. Storage is adaptive: tiny domains use a dense
// u_a*u_b array immediately; larger domains start with the open-addressing
// FlatHashMap (an MI query builds one counter per candidate, and most
// candidates are pruned after a few thousand samples, so eagerly zeroing h
// dense arrays would dominate the query) and migrate to the dense layout
// once enough distinct pairs accumulate to make it worthwhile -- provided
// the domain fits under `dense_limit`. A table is therefore dense only when
// it has at most kImmediateDenseCells cells or is at least 1/8 occupied, so
// one evaluation costs O(max(kImmediateDenseCells, 8 * M)).

#ifndef SWOPE_CORE_PAIR_COUNTER_H_
#define SWOPE_CORE_PAIR_COUNTER_H_

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "src/common/flat_hash_map.h"
#include "src/table/packed_codes.h"

namespace swope {

/// Joint counter over code pairs from two attributes.
class PairCounter {
 public:
  /// Domains up to this many cells go dense at construction.
  static constexpr uint64_t kImmediateDenseCells = 4096;

  /// `support_a`, `support_b`: supports of the two attributes.
  /// `dense_limit`: maximum u_a*u_b (in cells) the dense layout may use.
  /// Both layouts allocate from `memory` (default: the global heap) --
  /// including the dense array a later migration builds -- so an
  /// arena-backed counter never touches the heap.
  PairCounter(uint32_t support_a, uint32_t support_b,
              uint64_t dense_limit = 1ULL << 20,
              std::pmr::memory_resource* memory = nullptr);

  uint64_t sample_count() const { return sample_count_; }
  /// True when currently using the dense layout (may flip from false to
  /// true over the counter's lifetime, never back).
  bool is_dense() const { return is_dense_; }

  /// Absorbs one sampled pair.
  void Add(ValueCode a, ValueCode b) { AddCodes(&a, &b, 1); }

  /// Absorbs `count` pre-decoded pairs (a[i], b[i]). Callers gather both
  /// columns' slices through ColumnView first.
  void AddCodes(const ValueCode* a, const ValueCode* b, uint64_t count) {
    if (!is_dense_) {
      AddCodesSparse(a, b, count);
      return;
    }
    uint64_t* dense = dense_.data();
    const uint64_t support_b = support_b_;
    for (uint64_t i = 0; i < count; ++i) {
      ++dense[static_cast<uint64_t>(a[i]) * support_b + b[i]];
    }
    sample_count_ += count;
  }

  /// Sample joint entropy H_S(a, b) in bits, computed from the counts.
  double SampleJointEntropy() const;

  /// Count of a specific pair (for tests).
  uint64_t count(ValueCode a, ValueCode b) const;

 private:
  uint64_t Key(ValueCode a, ValueCode b) const {
    return static_cast<uint64_t>(a) * support_b_ + b;
  }
  void AddCodesSparse(const ValueCode* a, const ValueCode* b, uint64_t count);
  void MigrateToDense();

  uint32_t support_b_;
  uint64_t cells_;
  uint64_t dense_limit_;
  bool is_dense_;
  std::pmr::memory_resource* memory_;
  std::pmr::vector<uint64_t> dense_;
  FlatHashMap<uint64_t, uint64_t> sparse_;
  uint64_t sample_count_ = 0;
};

}  // namespace swope

#endif  // SWOPE_CORE_PAIR_COUNTER_H_
