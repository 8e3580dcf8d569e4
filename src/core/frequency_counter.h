// FrequencyCounter: per-attribute sample counts.
//
// Holds only the value counts m_i of the sampled prefix S(alpha): the
// per-row hot path is one count increment. The sample entropy
//   H_S(alpha) = log2(M) - (sum_i m_i log2 m_i) / M          (Equation 1)
// is computed from the counts when a round's bounds are evaluated, by one
// O(u_alpha) scan. The queries evaluate bounds once per doubling
// iteration, so the total evaluation work is O(u * log N) per attribute --
// negligible next to the O(M) counting.

#ifndef SWOPE_CORE_FREQUENCY_COUNTER_H_
#define SWOPE_CORE_FREQUENCY_COUNTER_H_

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "src/table/packed_codes.h"

namespace swope {

/// Incremental counter over codes in [0, support).
class FrequencyCounter {
 public:
  /// Creates a counter for an attribute with the given support size. The
  /// count array comes from `memory` (default: the global heap); scorers
  /// pass the query arena so per-query counters cost no heap traffic.
  explicit FrequencyCounter(uint32_t support,
                            std::pmr::memory_resource* memory = nullptr);

  uint32_t support() const { return static_cast<uint32_t>(counts_.size()); }
  /// M: number of samples absorbed so far.
  uint64_t sample_count() const { return sample_count_; }
  /// Count m_i of value i.
  uint64_t count(uint32_t code) const { return counts_[code]; }
  const std::pmr::vector<uint64_t>& counts() const { return counts_; }

  /// Absorbs one sampled value.
  void Add(ValueCode code) {
    ++counts_[code];
    ++sample_count_;
  }

  /// Absorbs a contiguous span of already-decoded codes (a gathered
  /// permutation slice; see ColumnView::Gather). Counting is decoupled
  /// from storage: callers batch-decode once, then feed the span here.
  void AddCodes(const ValueCode* codes, uint64_t count) {
    uint64_t* counts = counts_.data();
    for (uint64_t i = 0; i < count; ++i) ++counts[codes[i]];
    sample_count_ += count;
  }

  /// Sample entropy H_S(alpha) in bits (0 when no samples). One O(u)
  /// scan per call, in ascending value order -- a pure function of the
  /// counts.
  double SampleEntropy() const;

 private:
  std::pmr::vector<uint64_t> counts_;
  uint64_t sample_count_ = 0;
};

}  // namespace swope

#endif  // SWOPE_CORE_FREQUENCY_COUNTER_H_
