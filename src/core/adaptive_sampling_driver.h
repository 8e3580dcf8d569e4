// The unified SWOPE adaptive-sampling loop (internal to src/core/).
//
// Every SWOPE query — entropy / MI / NMI, top-k / filter — runs the same
// machinery: draw one row permutation, grow a sample prefix, fold the new
// slice into per-candidate counters, derive El-Yaniv–Pechyony + bias
// confidence intervals, apply a stopping rule, prune, and grow M. The
// AdaptiveSamplingDriver owns that loop once; a Scorer supplies the
// per-candidate counters and intervals, and a DecisionPolicy supplies the
// stopping rule, pruning, and answer assembly. The public entry points
// (swope_topk_entropy.h et al.) are thin wrappers that pick the pair; the
// sampling baselines (sampling_baselines.h) are the same wrappers with an
// exact stopping rule (RankPolicy, or FilterPolicy at epsilon = 0).
//
// Parallelism and determinism: every round updates each active
// candidate through one call, Scorer::UpdateCandidate, over the whole
// round slice. Without QueryOptions::pool the driver makes those calls
// in a loop; with a pool it runs them through ThreadPool::ParallelFor,
// one iteration per candidate. The answer is byte-identical at any
// thread count because
//   (1) shared round state (the MI target counter) is absorbed serially in
//       BeginRound before any candidate update,
//   (2) a candidate's update touches only that candidate's state and
//       absorbs the slice in permutation order, so each counter sees the
//       same sequence as in the serial loop, and
//   (3) every reduction over candidates (k-th bounds, stopping slack,
//       filter classification) runs serially afterwards, in the fixed
//       active-candidate order.
// docs/CORE.md spells out the full argument.
//
// This header is internal: outside src/core/, include the public
// swope_*.h entry points instead. src/core/ TUs opt in by defining
// SWOPE_CORE_INTERNAL before their includes; everyone else hits the
// #error below (tools/lint.py catches the include textually, the
// preprocessor makes it a hard build break — see
// tests/compile_fail/core_internal_include.cc).

#ifndef SWOPE_CORE_ADAPTIVE_SAMPLING_DRIVER_H_
#define SWOPE_CORE_ADAPTIVE_SAMPLING_DRIVER_H_

#ifndef SWOPE_CORE_INTERNAL
#error "src/core/adaptive_sampling_driver.h is internal to src/core/; include the public swope_topk_*/swope_filter_* headers instead"
#endif

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "src/common/result.h"
#include "src/core/query_options.h"
#include "src/core/query_result.h"
#include "src/table/table.h"

namespace swope {

/// The memory resource a query's transient state allocates from: the
/// caller-provided arena (QueryOptions::memory) or the global heap.
inline std::pmr::memory_resource* ResolveQueryMemory(
    const QueryOptions& options) {
  return options.memory != nullptr ? options.memory
                                   : std::pmr::get_default_resource();
}

/// A candidate's confidence interval plus the scorer-specific stopping
/// ingredient (entropy: the Lemma 1 bias b; MI: the total slack b').
struct ScoreInterval {
  double lower = 0.0;
  double upper = 0.0;
  double slack = 0.0;

  /// Midpoint estimate (lower + upper) / 2 — the certified answer value.
  double Estimate() const { return 0.5 * (lower + upper); }
  double Width() const { return upper - lower; }
};

/// Owns the per-candidate counters of one query and turns sample prefixes
/// into ScoreIntervals. Implementations: EntropyScorer, MiScorer,
/// NmiScorer (src/core/scorers.h).
class Scorer {
 public:
  virtual ~Scorer() = default;

  Scorer(const Scorer&) = delete;
  Scorer& operator=(const Scorer&) = delete;

  /// Number of candidate attributes (h for entropy, h-1 for MI/NMI).
  size_t num_candidates() const { return columns_.size(); }
  /// Table column index of candidate `c`.
  size_t column(size_t c) const { return columns_[c]; }
  /// Interval computed by the most recent UpdateCandidate(c, ...).
  const ScoreInterval& interval(size_t c) const { return intervals_[c]; }
  /// Candidates scored through the sketch-backed frequency path; fixed at
  /// construction, copied into QueryStats::sketch_candidates by the
  /// driver.
  size_t sketch_candidates() const { return sketch_candidates_; }

  /// Union-bound multiplier: intervals derived per candidate per round
  /// (1 for entropy; 3 for MI/NMI, which bound three entropies).
  virtual double bounds_per_candidate() const = 0;

  /// Counter cells touched per newly sampled row while `active` candidates
  /// remain (entropy: one per candidate; MI/NMI: the shared target update
  /// plus a marginal and a joint update per candidate).
  virtual uint64_t CellsPerRow(size_t active) const = 0;

  /// Fixes the query-wide constants before the first round.
  void Bind(uint64_t n, double p_iter) {
    n_ = n;
    p_iter_ = p_iter;
  }

  /// Absorbs order[begin..end) into candidate-independent shared state
  /// (the MI/NMI target counter). Runs serially, once per round, before
  /// any UpdateCandidate of that round.
  virtual void BeginRound(const std::vector<uint32_t>& order, uint64_t begin,
                          uint64_t end, uint64_t m);

  /// Absorbs order[begin..end) into candidate `c`'s counters and
  /// recomputes interval(c) at sample size `m`. Must touch only
  /// candidate-`c` state: the driver calls this concurrently for distinct
  /// candidates.
  virtual void UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                               uint64_t begin, uint64_t end, uint64_t m) = 0;

  /// The kind-specific top-k stopping rule, given the k-th largest upper
  /// bound over `active`. Each implementation reproduces its algorithm's
  /// exact arithmetic (Algorithms 1 and 3, and the NMI relative-width
  /// rule); a non-positive kth_upper always stops.
  virtual bool TopKShouldStop(const std::pmr::vector<size_t>& active,
                              double kth_upper, uint64_t m,
                              double epsilon) const = 0;

 protected:
  /// All per-candidate state allocates from `memory` (null: global heap).
  explicit Scorer(std::pmr::memory_resource* memory = nullptr)
      : memory_(memory != nullptr ? memory
                                  : std::pmr::get_default_resource()),
        columns_(memory_),
        intervals_(memory_) {}

  std::pmr::memory_resource* const memory_;  // never null
  std::pmr::vector<size_t> columns_;         // candidate -> table column
  std::pmr::vector<ScoreInterval> intervals_;  // candidate -> latest interval
  size_t sketch_candidates_ = 0;        // candidates on the sketch path
  uint64_t n_ = 0;
  double p_iter_ = 0.0;
};

/// Consumes the round's intervals: classifies / prunes candidates, decides
/// when to stop, and assembles the answer items.
class DecisionPolicy {
 public:
  virtual ~DecisionPolicy() = default;

  /// One round's decision, after all active candidates were updated.
  /// May shrink `active` (pruning / classification); returns true when the
  /// query is done. Runs serially in the fixed active order.
  virtual bool Decide(const Scorer& scorer, std::pmr::vector<size_t>& active,
                      uint64_t m, uint64_t n,
                      std::pmr::vector<AttributeScore>& items) = 0;

  /// Assembles the final items after the loop stops.
  virtual void Finalize(const Scorer& scorer,
                        const std::pmr::vector<size_t>& active,
                        std::pmr::vector<AttributeScore>& items) = 0;
};

/// Top-k (Algorithms 1 and 3): stop via Scorer::TopKShouldStop on the
/// k-th largest upper bound, prune candidates whose upper bound falls
/// below the k-th largest lower bound, emit the k best by upper bound
/// (ties by ascending column index).
class TopKPolicy : public DecisionPolicy {
 public:
  /// Round scratch (the k-th-bound selection buffers) allocates from
  /// `memory` (null: global heap) and keeps its capacity across rounds.
  TopKPolicy(const Table& table, size_t k, double epsilon,
             std::pmr::memory_resource* memory = nullptr)
      : table_(table),
        k_(k),
        epsilon_(epsilon),
        uppers_(memory != nullptr ? memory
                                  : std::pmr::get_default_resource()),
        lowers_(uppers_.get_allocator()),
        order_(uppers_.get_allocator()) {}

  bool Decide(const Scorer& scorer, std::pmr::vector<size_t>& active,
              uint64_t m, uint64_t n,
              std::pmr::vector<AttributeScore>& items) override;
  void Finalize(const Scorer& scorer, const std::pmr::vector<size_t>& active,
                std::pmr::vector<AttributeScore>& items) override;

 private:
  const Table& table_;
  size_t k_;
  double epsilon_;
  // Per-round selection scratch, reused so rounds allocate nothing once
  // capacities are warm.
  std::pmr::vector<double> uppers_;
  std::pmr::vector<double> lowers_;
  std::pmr::vector<size_t> order_;
};

/// Exact-separation top-k (the EntropyRank / MiRank baselines): stop once
/// k or fewer candidates remain or the k-th largest lower bound reaches
/// the (k+1)-th largest upper bound, prune candidates whose upper bound
/// falls below the k-th largest lower bound, emit the k best by lower
/// bound (ties by ascending column index).
class RankPolicy : public DecisionPolicy {
 public:
  /// Round scratch allocates from `memory` (null: global heap).
  RankPolicy(const Table& table, size_t k,
             std::pmr::memory_resource* memory = nullptr)
      : table_(table),
        k_(k),
        uppers_(memory != nullptr ? memory
                                  : std::pmr::get_default_resource()),
        lowers_(uppers_.get_allocator()),
        order_(uppers_.get_allocator()) {}

  bool Decide(const Scorer& scorer, std::pmr::vector<size_t>& active,
              uint64_t m, uint64_t n,
              std::pmr::vector<AttributeScore>& items) override;
  void Finalize(const Scorer& scorer, const std::pmr::vector<size_t>& active,
                std::pmr::vector<AttributeScore>& items) override;

 private:
  const Table& table_;
  size_t k_;
  // Per-round selection scratch, as in TopKPolicy.
  std::pmr::vector<double> uppers_;
  std::pmr::vector<double> lowers_;
  std::pmr::vector<size_t> order_;
};

/// Filter (Algorithms 2 and 4): classify each candidate against eta as
/// soon as its interval permits — accept when the interval is narrow and
/// the estimate clears eta, or the lower bound certifies it; reject when
/// the upper bound rules it out; keep sampling otherwise. Stops when no
/// candidate is left undecided. Accepted items are emitted in ascending
/// column order. At epsilon = 0 the width rule never fires (every interval
/// has upper >= lower), leaving the filter baselines' exact rule: accept
/// when lower >= eta, reject when upper < eta.
class FilterPolicy : public DecisionPolicy {
 public:
  /// Round scratch allocates from `memory` (null: global heap).
  FilterPolicy(const Table& table, double eta, double epsilon,
               std::pmr::memory_resource* memory = nullptr)
      : table_(table),
        eta_(eta),
        epsilon_(epsilon),
        still_active_(memory != nullptr ? memory
                                        : std::pmr::get_default_resource()) {}

  bool Decide(const Scorer& scorer, std::pmr::vector<size_t>& active,
              uint64_t m, uint64_t n,
              std::pmr::vector<AttributeScore>& items) override;
  void Finalize(const Scorer& scorer, const std::pmr::vector<size_t>& active,
                std::pmr::vector<AttributeScore>& items) override;

 private:
  const Table& table_;
  double eta_;
  double epsilon_;
  // Survivor scratch swapped with `active` each round; same resource as
  // the driver's active vector so the swap is a buffer steal.
  std::pmr::vector<size_t> still_active_;
};

/// The shared sampling loop. Wrappers validate their inputs, construct the
/// scorer/policy pair, and call Run.
class AdaptiveSamplingDriver {
 public:
  AdaptiveSamplingDriver(const Table& table, const QueryOptions& options)
      : table_(table), options_(options) {}

  /// `items` allocates from QueryOptions::memory; see the TopKResult
  /// lifetime contract (src/core/query_result.h).
  struct Output {
    explicit Output(std::pmr::memory_resource* memory = nullptr)
        : items(memory != nullptr ? memory
                                  : std::pmr::get_default_resource()) {}
    std::pmr::vector<AttributeScore> items;
    QueryStats stats;
  };

  Result<Output> Run(Scorer& scorer, DecisionPolicy& policy);

 private:
  const Table& table_;
  const QueryOptions& options_;
};

}  // namespace swope

#endif  // SWOPE_CORE_ADAPTIVE_SAMPLING_DRIVER_H_
