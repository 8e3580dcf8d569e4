#include "src/baselines/mi_rank.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/math.h"
#include "src/core/bounds.h"
#include "src/core/frequency_counter.h"
#include "src/core/pair_counter.h"
#include "src/core/prefix_sampler.h"
#include "src/table/column_view.h"

namespace swope {

namespace {

struct MiCandidate {
  size_t column = 0;
  ColumnView view;
  PairCounter joint{0, 0};
  // The candidate's marginal counts: the joint's column sums, refreshed
  // at each round end.
  std::vector<uint64_t> marginal;
  MiInterval interval;
};

}  // namespace

Result<TopKResult> MiRankTopK(const Table& table, size_t target, size_t k,
                              const QueryOptions& options) {
  SWOPE_RETURN_NOT_OK(options.Validate());
  const uint64_t n = table.num_rows();
  const size_t h = table.num_columns();
  if (target >= h) {
    return Status::InvalidArgument("mi rank: target index out of range");
  }
  if (h < 2) {
    return Status::InvalidArgument("mi rank: need at least two columns");
  }
  if (k == 0) return Status::InvalidArgument("mi rank: k must be >= 1");
  k = std::min(k, h - 1);

  const Column& target_col = table.column(target);
  const double pf = options.ResolveFailureProbability(n);
  const uint64_t m0 =
      options.initial_sample_size > 0
          ? std::min<uint64_t>(n, std::max<uint64_t>(
                                      kMinSampleSize,
                                      options.initial_sample_size))
          : ComputeM0(n, h, pf, table.MaxSupport());
  const uint32_t i_max = MaxIterations(n, m0);
  const double p_iter =
      pf / (3.0 * static_cast<double>(i_max) * static_cast<double>(h - 1));

  TopKResult result;
  result.stats.initial_sample_size = m0;

  PrefixSampler sampler(static_cast<uint32_t>(n), options.seed,
                        options.sequential_sampling);
  FrequencyCounter target_counter(target_col.support());
  std::vector<MiCandidate> candidates;
  candidates.reserve(h - 1);
  for (size_t j = 0; j < h; ++j) {
    if (j == target) continue;
    MiCandidate c;
    c.column = j;
    c.view = ColumnView(table.column(j));
    c.joint = PairCounter(target_col.support(), table.column(j).support(),
                          options.dense_pair_limit);
    c.marginal.resize(table.column(j).support());
    candidates.push_back(std::move(c));
  }
  const ColumnView target_view(target_col);
  std::vector<ValueCode> target_slice;
  std::vector<ValueCode> scratch;
  std::vector<size_t> active(candidates.size());
  for (size_t i = 0; i < active.size(); ++i) active[i] = i;

  auto finalize = [&](uint64_t m) {
    std::vector<size_t> order = active;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (candidates[a].interval.lower != candidates[b].interval.lower) {
        return candidates[a].interval.lower > candidates[b].interval.lower;
      }
      return candidates[a].column < candidates[b].column;
    });
    order.resize(std::min(order.size(), k));
    for (size_t idx : order) {
      const MiCandidate& c = candidates[idx];
      result.items.push_back({c.column, table.column(c.column).name(),
                              c.interval.Estimate(), c.interval.lower,
                              c.interval.upper});
    }
    result.stats.final_sample_size = m;
    result.stats.candidates_remaining = active.size();
    result.stats.exhausted_dataset = (m >= n);
  };

  uint64_t m = std::min<uint64_t>(m0, n);
  for (;;) {
    ++result.stats.iterations;
    const PrefixSampler::Range range = sampler.GrowTo(m);
    const uint64_t count = range.end - range.begin;
    const ValueCode* target_codes =
        target_view.Gather(sampler.order(), range.begin, range.end,
                           target_slice);
    target_counter.AddCodes(target_codes, count);
    const EntropyInterval target_interval =
        MakeEntropyInterval(target_counter.SampleEntropy(),
                            target_col.support(), n, m, p_iter);
    for (size_t idx : active) {
      MiCandidate& c = candidates[idx];
      const ValueCode* codes =
          c.view.Gather(sampler.order(), range.begin, range.end, scratch);
      c.joint.AddCodes(target_codes, codes, count);
      const uint64_t u_bar = static_cast<uint64_t>(target_col.support()) *
                             static_cast<uint64_t>(c.view.support());
      const EntropyInterval joint_interval = MakeEntropyInterval(
          c.joint.SampleJointEntropy(c.marginal.data()), u_bar, n, m,
          p_iter);
      const EntropyInterval marginal_interval = MakeEntropyInterval(
          EntropyFromCounts(c.marginal, c.joint.sample_count()),
          c.view.support(), n, m, p_iter);
      c.interval =
          MakeMiInterval(target_interval, marginal_interval, joint_interval);
    }
    result.stats.cells_scanned +=
        (range.end - range.begin) * (1 + 2 * active.size());

    if (active.size() <= k) {
      finalize(m);
      return result;
    }

    std::vector<double> lowers;
    std::vector<double> uppers;
    lowers.reserve(active.size());
    uppers.reserve(active.size());
    for (size_t idx : active) {
      lowers.push_back(candidates[idx].interval.lower);
      uppers.push_back(candidates[idx].interval.upper);
    }
    std::nth_element(lowers.begin(), lowers.begin() + (k - 1), lowers.end(),
                     std::greater<double>());
    const double kth_lower = lowers[k - 1];
    std::nth_element(uppers.begin(), uppers.begin() + k, uppers.end(),
                     std::greater<double>());
    const double k1th_upper = uppers[k];

    if (kth_lower >= k1th_upper || m >= n) {
      finalize(m);
      return result;
    }

    std::erase_if(active, [&](size_t idx) {
      return candidates[idx].interval.upper < kth_lower;
    });

    const uint64_t grown = static_cast<uint64_t>(
        std::ceil(static_cast<double>(m) * options.growth_factor));
    m = std::min<uint64_t>(n, std::max<uint64_t>(m + 1, grown));
  }
}

}  // namespace swope
