// The three Scorer implementations behind the SWOPE entry points
// (internal to src/core/ — see adaptive_sampling_driver.h).
//
//   EntropyScorer  one FrequencyCounter per column; Lemma 3 intervals.
//   MiScorer       a shared target counter plus, per candidate, one joint
//                  PairCounter whose column sums give the candidate's
//                  marginal; Section 4.1 interval composition.
//   NmiScorer      MiScorer's counters, with the MI interval normalized by
//                  sqrt(H(t) * H(a)) bounds.
//
// Columns whose support exceeds QueryOptions::sketch_threshold take the
// sketch-backed path when sketches are enabled: the exact counter is
// replaced by a SketchFrequencyProvider and the interval by
// MakeSketchEntropyInterval (src/core/sketch_estimation.h). The split is
// per candidate, so one query can mix exact and sketched columns; MI/NMI
// joints go through a sketch whenever either side does. docs/SKETCH.md
// covers the estimator.
//
// This header is internal: outside src/core/, include the public
// swope_*.h entry points instead. src/core/ TUs opt in by defining
// SWOPE_CORE_INTERNAL before their includes; everyone else hits the
// #error below.

#ifndef SWOPE_CORE_SCORERS_H_
#define SWOPE_CORE_SCORERS_H_

#ifndef SWOPE_CORE_INTERNAL
#error "src/core/scorers.h is internal to src/core/; include the public swope_topk_*/swope_filter_* headers instead"
#endif

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "src/core/adaptive_sampling_driver.h"
#include "src/core/bounds.h"
#include "src/core/code_scratch.h"
#include "src/core/frequency_counter.h"
#include "src/core/pair_counter.h"
#include "src/core/query_options.h"
#include "src/core/sketch_estimation.h"
#include "src/sketch/frequency_provider.h"
#include "src/table/column_view.h"
#include "src/table/table.h"

namespace swope {

/// Scores every column of the table by its empirical entropy.
class EntropyScorer : public Scorer {
 public:
  EntropyScorer(const Table& table, const QueryOptions& options);

  double bounds_per_candidate() const override { return 1.0; }
  uint64_t CellsPerRow(size_t active) const override { return active; }
  void UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                       uint64_t begin, uint64_t end, uint64_t m) override;
  /// Algorithm 1 line 8: (kth_upper - 2*lambda - b_max) / kth_upper
  /// >= 1 - epsilon, with b_max the largest bias among current top-k
  /// members.
  bool TopKShouldStop(const std::pmr::vector<size_t>& active,
                      double kth_upper, uint64_t m,
                      double epsilon) const override;

 private:
  const Table& table_;
  /// Stage-attribution hook (QueryOptions::profiler); null when off.
  StageProfiler* const profiler_;
  std::pmr::vector<ColumnView> views_;
  // Exactly one of counters_[c] (sized 0 when sketched) and sketches_[c]
  // (null when exact) is live per candidate.
  std::pmr::vector<FrequencyCounter> counters_;
  std::pmr::vector<std::unique_ptr<SketchFrequencyProvider>> sketches_;
  // Decode buffers, recycled across rounds and shared by the pool
  // workers: the engine-pooled arena (QueryOptions::scratch) when
  // provided, else a query-local fallback.
  CodeScratchArena own_scratch_;
  CodeScratchArena& scratch_;
};

/// Scores every non-target column by its mutual information with the
/// target column.
class MiScorer : public Scorer {
 public:
  MiScorer(const Table& table, size_t target, const QueryOptions& options);

  double bounds_per_candidate() const override { return 3.0; }
  uint64_t CellsPerRow(size_t active) const override {
    // Target value plus, per candidate, one value and one pair absorbed
    // per row -- the unit of the paper and the Exact* stats, even though
    // an exact candidate counts only its pair (its marginal is the
    // joint's column sums).
    return 1 + 2 * active;
  }
  void BeginRound(const std::vector<uint32_t>& order, uint64_t begin,
                  uint64_t end, uint64_t m) override;
  void UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                       uint64_t begin, uint64_t end, uint64_t m) override;
  /// Algorithm 3: (kth_upper - slack_max) / kth_upper >= 1 - epsilon,
  /// with slack_max the largest b' among current top-k members.
  bool TopKShouldStop(const std::pmr::vector<size_t>& active,
                      double kth_upper, uint64_t m,
                      double epsilon) const override;

 protected:
  /// Folds order[begin..end) into candidate `c`'s counters and returns the
  /// composed MI interval at sample size `m`; also reports the candidate's
  /// marginal entropy interval (the NMI normalization needs it).
  MiInterval UpdateMi(size_t c, const std::vector<uint32_t>& order,
                      uint64_t begin, uint64_t end, uint64_t m,
                      EntropyInterval* marginal_out);

  const EntropyInterval& target_interval() const { return target_interval_; }

  const Table& table_;
  const Column& target_col_;
  /// Stage-attribution hook (QueryOptions::profiler); null when off.
  /// Protected so NmiScorer can attribute its composition step too.
  StageProfiler* const profiler_;

 private:
  struct CandidateCounters {
    /// Every container allocates from `memory` so an arena-backed query
    /// builds its whole candidate state in the arena.
    explicit CandidateCounters(std::pmr::memory_resource* memory)
        : joint(0, 0, 1ULL << 20, memory),
          joint_marginal(memory),
          marginal(0, memory) {}

    /// Exact joint: the only per-row counter. Its column sums are
    /// written to `joint_marginal` (support entries) at each round end,
    /// and the candidate's marginal entropy is computed from them.
    PairCounter joint;
    std::pmr::vector<uint64_t> joint_marginal;
    // Sketch path: the joint sketch is keyed (target_code << 32) | code
    // and is engaged whenever either marginal is sketched; the candidate's
    // marginal is then counted on its own, through `marginal_sketch` when
    // the candidate is sketched and through `marginal` otherwise.
    std::unique_ptr<SketchFrequencyProvider> joint_sketch;
    std::unique_ptr<SketchFrequencyProvider> marginal_sketch;
    FrequencyCounter marginal;
  };

  ColumnView target_view_;
  std::pmr::vector<ColumnView> views_;
  FrequencyCounter target_counter_;
  std::unique_ptr<SketchFrequencyProvider> target_sketch_;
  EntropyInterval target_interval_;
  // The round's gathered target slice: target_slice_[i] is the target
  // code at order[begin + i]. Written once per round in BeginRound
  // (serial), read by every UpdateCandidate (the pool's fork provides the
  // happens-before edge).
  std::pmr::vector<ValueCode> target_slice_;
  std::pmr::vector<CandidateCounters> counters_;
  // See EntropyScorer::scratch_.
  CodeScratchArena own_scratch_;
  CodeScratchArena& scratch_;
};

/// Scores every non-target column by its normalized mutual information
/// NMI(t, a) = I(t; a) / sqrt(H(t) * H(a)) with the target column.
class NmiScorer : public MiScorer {
 public:
  NmiScorer(const Table& table, size_t target, const QueryOptions& options)
      : MiScorer(table, target, options) {}

  void UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                       uint64_t begin, uint64_t end, uint64_t m) override;
  /// Generalized relative-width rule: every current top-k member must
  /// satisfy upper - lower <= epsilon * upper.
  bool TopKShouldStop(const std::pmr::vector<size_t>& active,
                      double kth_upper, uint64_t m,
                      double epsilon) const override;
};

}  // namespace swope

#endif  // SWOPE_CORE_SCORERS_H_
