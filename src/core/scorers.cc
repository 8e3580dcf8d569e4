// This TU lives in src/core/ and may use the internal driver headers.
#define SWOPE_CORE_INTERNAL

#include "src/core/scorers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace swope {

namespace {

// Composes the NMI interval from the MI interval and the two marginal
// entropy intervals; for exact-path columns both are exact, and the
// denominator is the exact sqrt(H(t) * H(a)). When a marginal lower bound
// is 0 the upper bound is vacuous (1); when a marginal upper bound is 0
// the attribute is constant and NMI is 0.
ScoreInterval ComposeNmi(const MiInterval& mi, const EntropyInterval& target,
                         const EntropyInterval& candidate) {
  ScoreInterval interval;
  const double denom_upper = std::sqrt(target.upper * candidate.upper);
  const double denom_lower = std::sqrt(target.lower * candidate.lower);
  if (denom_upper <= 0.0) return interval;  // a constant attribute: NMI = 0
  interval.lower = std::clamp(mi.lower / denom_upper, 0.0, 1.0);
  interval.upper =
      denom_lower > 0.0
          ? std::clamp(mi.upper / denom_lower, interval.lower, 1.0)
          : 1.0;
  return interval;
}

// Builds one sketch provider for a scorer slot. The wrappers validate
// options before constructing any scorer and the heavy capacities are
// compile-time constants >= 1, so provider construction cannot fail here.
std::unique_ptr<SketchFrequencyProvider> MakeScorerSketch(
    const QueryOptions& options, uint64_t seed_salt, uint32_t heavy_capacity) {
  Result<SketchFrequencyProvider> provider =
      MakeQuerySketchProvider(options, seed_salt, heavy_capacity);
  return std::make_unique<SketchFrequencyProvider>(
      std::move(provider).value());
}

// Seed-salt namespace bit for joint sketches: column supports fit in 32
// bits, so (kJointSaltBit | column) never collides with a marginal salt.
constexpr uint64_t kJointSaltBit = uint64_t{1} << 32;

}  // namespace

EntropyScorer::EntropyScorer(const Table& table, const QueryOptions& options)
    : Scorer(options.memory),
      table_(table),
      profiler_(options.profiler),
      shared_(options.shared_prefix.get()),
      views_(memory_),
      sketches_(memory_),
      scratch_(options.scratch != nullptr ? *options.scratch : own_scratch_) {
  const size_t h = table.num_columns();
  columns_.resize(h);
  views_.reserve(h);
  sketches_.resize(h);
  for (size_t j = 0; j < h; ++j) {
    columns_[j] = j;
    views_.emplace_back(table.column(j));
    if (UsesSketchPath(table.column(j).support(), options)) {
      sketches_[j] = MakeScorerSketch(options, j, kSketchHeavyCapacity);
      ++sketch_candidates_;
    }
  }
  intervals_.resize(h);
}

Status EntropyScorer::Bind(uint64_t n, double p_iter,
                           const SampleSchedule& schedule) {
  SWOPE_RETURN_NOT_OK(Scorer::Bind(n, p_iter, schedule));
  if (shared_ != nullptr) {
    SWOPE_ASSIGN_OR_RETURN(shared_state_, shared_->Entropy(table_, schedule));
    prefix_ = shared_state_.get();
  } else {
    prefix_ = &own_prefix_.emplace(table_, schedule, memory_);
  }
  return Status::OK();
}

void EntropyScorer::BeginRound(const std::vector<uint32_t>& /*order*/,
                               uint64_t /*begin*/, uint64_t /*end*/,
                               uint64_t /*m*/) {
  ++rounds_begun_;
}

void EntropyScorer::UpdateCandidate(size_t c,
                                    const std::vector<uint32_t>& order,
                                    uint64_t begin, uint64_t end,
                                    uint64_t m) {
  const uint64_t count = end - begin;
  if (sketches_[c] != nullptr) {
    // Gather-then-count: decode the round's slice once, then feed the
    // span.
    CodeScratchArena::Lease lease(scratch_);
    const ValueCode* codes;
    {
      StageTimer timer(profiler_, Stage::kGather);
      codes = views_[c].Gather(order, begin, end, lease.buffer());
    }
    {
      StageTimer timer(profiler_, Stage::kCount);
      sketches_[c]->AddCodes(codes, count);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    const EntropyInterval interval = MakeSketchEntropyInterval(
        sketches_[c]->Summarize(), views_[c].support(), n_, m, p_iter_);
    intervals_[c] = {interval.lower, interval.upper, interval.bias};
    return;
  }

  // H_S at this round's schedule point. A candidate active now was
  // active in every earlier round of this query, so the state covers
  // every earlier point: it either covers this one too, or its counts end
  // exactly at `begin` and this round's slice extends them.
  const size_t point = rounds_begun_ - 1;
  ColumnPrefix& prefix = prefix_->column(c);
  double sample_entropy;
  bool counted;
  {
    MutexLock lock(prefix.mutex());
    counted = prefix.points() <= point;
    if (counted) {
      assert(prefix.points() == point && prefix.depth() == begin);
      CodeScratchArena::Lease lease(scratch_);
      const ValueCode* codes;
      {
        StageTimer timer(profiler_, Stage::kGather);
        codes = views_[c].Gather(order, begin, end, lease.buffer());
      }
      {
        StageTimer timer(profiler_, Stage::kCount);
        prefix.AddCodes(codes, count);
      }
      StageTimer timer(profiler_, Stage::kIntervalUpdate);
      prefix.RecordPoint();
    }
    sample_entropy = prefix.entropy(point);
  }
  if (shared_ != nullptr) {
    Counter* tally =
        counted ? shared_->counted_cells() : shared_->reused_cells();
    if (tally != nullptr) tally->Increment(count);
  }
  StageTimer timer(profiler_, Stage::kIntervalUpdate);
  const EntropyInterval interval = MakeEntropyInterval(
      sample_entropy, views_[c].support(), n_, m, p_iter_);
  intervals_[c] = {interval.lower, interval.upper, interval.bias};
}

bool EntropyScorer::TopKShouldStop(const std::pmr::vector<size_t>& active,
                                   double kth_upper, uint64_t m,
                                   double epsilon) const {
  // A non-positive k-th upper bound means every candidate entropy is
  // zero, so any answer is exact.
  if (kth_upper <= 0.0) return true;
  double b_max = 0.0;
  for (size_t idx : active) {
    if (intervals_[idx].upper >= kth_upper) {
      b_max = std::max(b_max, intervals_[idx].slack);
    }
  }
  const double lambda = PermutationLambda(n_, m, p_iter_);
  // Stopping rule (Algorithm 1 line 8).
  return (kth_upper - 2.0 * lambda - b_max) / kth_upper >= 1.0 - epsilon;
}

MiScorer::MiScorer(const Table& table, size_t target,
                   const QueryOptions& options)
    : Scorer(options.memory),
      table_(table),
      target_col_(table.column(target)),
      profiler_(options.profiler),
      target_view_(table.column(target)),
      views_(memory_),
      target_slice_(memory_),
      counters_(memory_),
      scratch_(options.scratch != nullptr ? *options.scratch : own_scratch_) {
  // Only exact-path columns are counted (Column::ValueCounts, computed on
  // a column's first use and cached on it); a sketched side keeps a
  // per-round sketch interval instead.
  const bool target_sketched =
      UsesSketchPath(target_col_.support(), options);
  if (target_sketched) {
    target_sketch_ = MakeScorerSketch(options, target, kSketchHeavyCapacity);
  } else {
    target_interval_ = ExactEntropyInterval(target_col_.Entropy());
  }
  bool candidate_sketched = false;
  const size_t h = table.num_columns();
  columns_.reserve(h - 1);
  views_.reserve(h - 1);
  counters_.reserve(h - 1);
  for (size_t j = 0; j < h; ++j) {
    if (j == target) continue;
    columns_.push_back(j);
    const Column& column = table.column(j);
    views_.emplace_back(column);
    const uint32_t support = column.support();
    const bool marginal_sketched = UsesSketchPath(support, options);
    // Assignments below move between equal-resource counters, so the
    // arena-built buffers are stolen, not copied.
    CandidateCounters counter(memory_);
    if (marginal_sketched) {
      counter.marginal_sketch =
          MakeScorerSketch(options, j, kSketchHeavyCapacity);
      candidate_sketched = true;
    } else {
      counter.marginal = ExactEntropyInterval(column.Entropy());
    }
    if (target_sketched || marginal_sketched) {
      // The joint domain contains a sketched side, so it is counted
      // through a sketch too (keyed (target_code << 32) | code).
      counter.joint_sketch = MakeScorerSketch(options, kJointSaltBit | j,
                                              kSketchJointHeavyCapacity);
      counter.joint_support =
          static_cast<uint64_t>(target_col_.support()) * support;
      ++sketch_candidates_;
    } else {
      counter.joint = PairCounter(target_col_.support(), support,
                                  options.dense_pair_limit, memory_);
      counter.joint_support =
          JointSupportCap(target_col_.ValueCounts(), column.ValueCounts());
    }
    counters_.push_back(std::move(counter));
  }
  intervals_.resize(columns_.size());
  bounds_per_candidate_ = 1.0 + (target_sketched ? 1.0 : 0.0) +
                          (candidate_sketched ? 1.0 : 0.0);
}

void MiScorer::BeginRound(const std::vector<uint32_t>& order, uint64_t begin,
                          uint64_t end, uint64_t m) {
  // Decode the target's slice once per round; every candidate's joint
  // update this round reads the same span.
  const ValueCode* target_codes;
  {
    StageTimer timer(profiler_, Stage::kGather);
    target_codes = target_view_.Gather(order, begin, end, target_slice_);
  }
  if (target_sketch_ == nullptr) return;  // the target entropy is exact
  {
    StageTimer timer(profiler_, Stage::kCount);
    target_sketch_->AddCodes(target_codes, end - begin);
  }
  StageTimer timer(profiler_, Stage::kIntervalUpdate);
  target_interval_ =
      MakeSketchEntropyInterval(target_sketch_->Summarize(),
                                target_col_.support(), n_, m, p_iter_);
}

MiInterval MiScorer::UpdateMi(size_t c, const std::vector<uint32_t>& order,
                              uint64_t begin, uint64_t end, uint64_t m,
                              EntropyInterval* marginal_out) {
  CandidateCounters& counter = counters_[c];
  const ColumnView& view = views_[c];
  CodeScratchArena::Lease lease(scratch_);
  const ValueCode* codes;
  {
    StageTimer timer(profiler_, Stage::kGather);
    codes = view.Gather(order, begin, end, lease.buffer());
  }
  const uint64_t count = end - begin;
  EntropyInterval joint_interval;
  if (counter.joint_sketch == nullptr) {
    // Exact joint: one increment per row; the round-end pass computes the
    // joint entropy from the counts.
    {
      StageTimer timer(profiler_, Stage::kCount);
      counter.joint.AddCodes(target_slice_.data(), codes, count);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    joint_interval = MakeEntropyInterval(counter.joint.SampleJointEntropy(),
                                         counter.joint_support, n_, m,
                                         p_iter_);
  } else {
    if (counter.marginal_sketch != nullptr) {
      {
        StageTimer timer(profiler_, Stage::kCount);
        counter.marginal_sketch->AddCodes(codes, count);
      }
      StageTimer timer(profiler_, Stage::kIntervalUpdate);
      counter.marginal =
          MakeSketchEntropyInterval(counter.marginal_sketch->Summarize(),
                                    view.support(), n_, m, p_iter_);
    }
    {
      StageTimer timer(profiler_, Stage::kCount);
      counter.joint_sketch->AddPairs(target_slice_.data(), codes, count);
    }
    StageTimer timer(profiler_, Stage::kIntervalUpdate);
    joint_interval =
        MakeSketchEntropyInterval(counter.joint_sketch->Summarize(),
                                  counter.joint_support, n_, m, p_iter_);
  }
  if (marginal_out != nullptr) *marginal_out = counter.marginal;
  StageTimer timer(profiler_, Stage::kIntervalUpdate);
  return MakeMiInterval(target_interval_, counter.marginal, joint_interval);
}

void MiScorer::UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                               uint64_t begin, uint64_t end, uint64_t m) {
  const MiInterval mi = UpdateMi(c, order, begin, end, m, nullptr);
  intervals_[c] = {mi.lower, mi.upper, mi.slack};
}

bool MiScorer::TopKShouldStop(const std::pmr::vector<size_t>& active,
                              double kth_upper, uint64_t /*m*/,
                              double epsilon) const {
  if (kth_upper <= 0.0) return true;
  double slack_max = 0.0;
  for (size_t idx : active) {
    if (intervals_[idx].upper >= kth_upper) {
      slack_max = std::max(slack_max, intervals_[idx].slack);
    }
  }
  // Stopping rule (Algorithm 3).
  return (kth_upper - slack_max) / kth_upper >= 1.0 - epsilon;
}

void NmiScorer::UpdateCandidate(size_t c, const std::vector<uint32_t>& order,
                                uint64_t begin, uint64_t end, uint64_t m) {
  EntropyInterval marginal_interval;
  const MiInterval mi = UpdateMi(c, order, begin, end, m, &marginal_interval);
  StageTimer timer(profiler_, Stage::kIntervalUpdate);
  intervals_[c] = ComposeNmi(mi, target_interval(), marginal_interval);
}

bool NmiScorer::TopKShouldStop(const std::pmr::vector<size_t>& active,
                               double kth_upper, uint64_t /*m*/,
                               double epsilon) const {
  if (kth_upper <= 0.0) return true;
  // Generalized relative-width stopping rule: every member of the
  // current top-k set must satisfy upper - lower <= eps * upper.
  for (size_t idx : active) {
    const ScoreInterval& interval = intervals_[idx];
    if (interval.upper >= kth_upper &&
        interval.upper - interval.lower > epsilon * interval.upper) {
      return false;
    }
  }
  return true;
}

}  // namespace swope
