#include "src/baselines/mi_filter.h"

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

struct MiState {
  size_t column = 0;
  ColumnView view;
  PairCounter joint{0, 0};
  // The candidate's marginal counts: the joint's column sums, refreshed
  // at each round end.
  std::vector<uint64_t> marginal;
};

}  // namespace

Result<FilterResult> MiFilterQuery(const Table& table, size_t target,
                                   double eta, const QueryOptions& options) {
  SWOPE_RETURN_NOT_OK(options.Validate());
  if (!(eta > 0.0)) {
    return Status::InvalidArgument("mi filter baseline: eta must be > 0");
  }
  const uint64_t n = table.num_rows();
  const size_t h = table.num_columns();
  if (target >= h) {
    return Status::InvalidArgument(
        "mi filter baseline: target index out of range");
  }
  if (h < 2) {
    return Status::InvalidArgument(
        "mi filter baseline: need at least two columns");
  }

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

  FilterResult result;
  result.stats.initial_sample_size = m0;

  PrefixSampler sampler(static_cast<uint32_t>(n), options.seed,
                        options.sequential_sampling);
  FrequencyCounter target_counter(target_col.support());
  std::vector<MiState> states;
  states.reserve(h - 1);
  for (size_t j = 0; j < h; ++j) {
    if (j == target) continue;
    MiState state;
    state.column = j;
    state.view = ColumnView(table.column(j));
    state.joint = PairCounter(target_col.support(),
                              table.column(j).support(),
                              options.dense_pair_limit);
    state.marginal.resize(table.column(j).support());
    states.push_back(std::move(state));
  }
  const ColumnView target_view(target_col);
  std::vector<ValueCode> target_slice;
  std::vector<ValueCode> scratch;
  std::vector<size_t> active(states.size());
  for (size_t i = 0; i < active.size(); ++i) active[i] = i;

  uint64_t m = std::min<uint64_t>(m0, n);
  while (!active.empty()) {
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
    result.stats.cells_scanned +=
        (range.end - range.begin) * (1 + 2 * active.size());

    std::vector<size_t> still_active;
    still_active.reserve(active.size());
    for (size_t idx : active) {
      MiState& state = states[idx];
      const Column& col = table.column(state.column);
      const ValueCode* codes =
          state.view.Gather(sampler.order(), range.begin, range.end, scratch);
      state.joint.AddCodes(target_codes, codes, count);
      const uint64_t u_bar = static_cast<uint64_t>(target_col.support()) *
                             static_cast<uint64_t>(col.support());
      const EntropyInterval joint_interval = MakeEntropyInterval(
          state.joint.SampleJointEntropy(state.marginal.data()), u_bar, n, m,
          p_iter);
      const EntropyInterval marginal_interval = MakeEntropyInterval(
          EntropyFromCounts(state.marginal, state.joint.sample_count()),
          col.support(), n, m, p_iter);
      const MiInterval interval =
          MakeMiInterval(target_interval, marginal_interval, joint_interval);

      if (interval.lower >= eta) {
        result.items.push_back({state.column, col.name(),
                                interval.Estimate(), interval.lower,
                                interval.upper});
      } else if (interval.upper < eta) {
        // rejected
      } else {
        still_active.push_back(idx);
      }
    }
    active = std::move(still_active);

    if (m >= n) break;
    const uint64_t grown = static_cast<uint64_t>(
        std::ceil(static_cast<double>(m) * options.growth_factor));
    m = std::min<uint64_t>(n, std::max<uint64_t>(m + 1, grown));
  }

  std::sort(result.items.begin(), result.items.end(),
            [](const AttributeScore& a, const AttributeScore& b) {
              return a.index < b.index;
            });
  result.stats.final_sample_size = sampler.consumed();
  result.stats.candidates_remaining = active.size();
  result.stats.exhausted_dataset = (sampler.consumed() >= n);
  return result;
}

}  // namespace swope
