// The three Scorer implementations behind the SWOPE entry points
// (internal to src/core/ — see adaptive_sampling_driver.h).
//
//   EntropyScorer  per column, H_S read from (or counted into) the prefix
//                  state of the query's schedule (src/core/
//                  shared_prefix.h); Lemma 3 intervals.
//   MiScorer       per candidate, one joint PairCounter, the only sampled
//                  quantity; the marginals H(t) and H(a) are exact, read
//                  off each column's cached counts (Column::Entropy).
//   NmiScorer      MiScorer's counters, with the MI interval normalized by
//                  sqrt(H(t) * H(a)).
//
// Columns whose support exceeds QueryOptions::sketch_threshold take the
// sketch-backed path when sketches are enabled: the exact counter is
// replaced by a SketchFrequencyProvider and the interval by
// MakeSketchEntropyInterval (src/core/sketch_estimation.h). The split is
// per candidate, so one query can mix exact and sketched columns; MI/NMI
// joints go through a sketch whenever either side does, and a sketched
// marginal keeps its own sampled interval. docs/SKETCH.md covers the
// estimator.
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
#include <optional>
#include <vector>

#include "src/core/adaptive_sampling_driver.h"
#include "src/core/bounds.h"
#include "src/core/code_scratch.h"
#include "src/core/pair_counter.h"
#include "src/core/query_options.h"
#include "src/core/shared_prefix.h"
#include "src/core/sketch_estimation.h"
#include "src/sketch/frequency_provider.h"
#include "src/table/column_view.h"
#include "src/table/table.h"

namespace swope {

/// Scores every column of the table by its empirical entropy. An exact
/// column's H_S at each round comes from its ColumnPrefix in the
/// schedule's EntropyPrefix: the SharedPrefix's (QueryOptions::
/// shared_prefix) when the engine passes one, else a query-local state in
/// the query's memory. Only a round no query has reached yet is gathered
/// and counted.
class EntropyScorer : public Scorer {
 public:
  EntropyScorer(const Table& table, const QueryOptions& options);

  double bounds_per_candidate() const override { return 1.0; }
  uint64_t CellsPerRow(size_t active) const override { return active; }
  /// Resolves the schedule's prefix state.
  Status Bind(uint64_t n, double p_iter,
              const SampleSchedule& schedule) override;
  /// Advances the schedule point this round's updates read or record.
  void BeginRound(const std::vector<uint32_t>& order, uint64_t begin,
                  uint64_t end, uint64_t m) override;
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
  /// QueryOptions::shared_prefix; null for a library call without one.
  SharedPrefix* const shared_;
  std::pmr::vector<ColumnView> views_;
  // A sketched candidate counts into sketches_[c]; an exact one (null
  // there) reads and extends prefix_->column(c).
  std::pmr::vector<std::unique_ptr<SketchFrequencyProvider>> sketches_;
  /// The schedule's state in shared_, held for the query's duration.
  std::shared_ptr<EntropyPrefix> shared_state_;
  /// The query-local state when shared_ is null; its columns allocate
  /// from the query's memory.
  std::optional<EntropyPrefix> own_prefix_;
  /// The state this query reads (shared_state_ or own_prefix_); set by
  /// Bind.
  EntropyPrefix* prefix_ = nullptr;
  /// Rounds begun; round r (from 0) reads or records schedule point r.
  uint32_t rounds_begun_ = 0;
  // Decode buffers, recycled across rounds and shared by the pool
  // workers: the engine-pooled arena (QueryOptions::scratch) when
  // provided, else a query-local fallback.
  CodeScratchArena own_scratch_;
  CodeScratchArena& scratch_;
};

/// Scores every non-target column by its mutual information with the
/// target column. For a candidate whose target and candidate are both on
/// the exact path, the marginals are exact and only the joint is sampled:
/// I lies in [H(t) + H(a) - H_upper(t,a),
///            min(H(t), H(a), H(t) + H(a) - H_lower(t,a))]
/// with slack b' = 2*lambda + b(t,a), where b(t,a) takes JointSupportCap
/// over the two columns' counts as the joint's support (docs/THEORY.md).
class MiScorer : public Scorer {
 public:
  MiScorer(const Table& table, size_t target, const QueryOptions& options);

  /// The most sampled entropy intervals any candidate's MI interval
  /// combines: its joint, plus the target's when the target is sketched,
  /// plus its own marginal when any candidate is sketched.
  double bounds_per_candidate() const override {
    return bounds_per_candidate_;
  }
  uint64_t CellsPerRow(size_t active) const override {
    // Target value plus, per candidate, one value and one pair absorbed
    // per row -- the unit of the paper and the Exact* stats, even though
    // an exact candidate counts only its pair (its marginal is exact).
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
  /// Folds order[begin..end) into candidate `c`'s counters and returns its
  /// MI interval at sample size `m`; also reports the candidate's marginal
  /// entropy interval (the NMI normalization needs it).
  MiInterval UpdateMi(size_t c, const std::vector<uint32_t>& order,
                      uint64_t begin, uint64_t end, uint64_t m,
                      EntropyInterval* marginal_out);

  /// The target's entropy: exact, or the target sketch's interval of the
  /// current round.
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
        : joint(0, 0, 1ULL << 20, memory) {}

    /// Exact joint: the only per-row counter.
    PairCounter joint;
    /// Lemma 1 support of the joint: JointSupportCap of the two columns'
    /// counts when both are on the exact path, else u_t * u_a.
    uint64_t joint_support = 0;
    /// The candidate's entropy: exact, or its marginal sketch's interval
    /// of the current round.
    EntropyInterval marginal;
    // Sketch path: the joint sketch is keyed (target_code << 32) | code
    // and is engaged whenever either side is sketched; a sketched
    // candidate also counts its marginal through `marginal_sketch`.
    std::unique_ptr<SketchFrequencyProvider> joint_sketch;
    std::unique_ptr<SketchFrequencyProvider> marginal_sketch;
  };

  ColumnView target_view_;
  std::pmr::vector<ColumnView> views_;
  std::unique_ptr<SketchFrequencyProvider> target_sketch_;
  EntropyInterval target_interval_;
  // The round's gathered target slice: target_slice_[i] is the target
  // code at order[begin + i]. Written once per round in BeginRound
  // (serial), read by every UpdateCandidate (the pool's fork provides the
  // happens-before edge).
  std::pmr::vector<ValueCode> target_slice_;
  std::pmr::vector<CandidateCounters> counters_;
  double bounds_per_candidate_ = 1.0;
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
