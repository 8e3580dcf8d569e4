#include "src/eval/mrmr.h"

#include <algorithm>

#include "src/core/frequency_counter.h"
#include "src/core/pair_counter.h"
#include "src/core/swope_topk_mi.h"
#include "src/table/column_view.h"
#include "src/table/shuffle.h"

namespace swope {

namespace {

// Sample MI between two columns over the first m rows of `order`,
// gathering both slices in chunks before counting.
double SampledMi(const Column& a, const Column& b,
                 const std::vector<uint32_t>& order, uint64_t m) {
  FrequencyCounter counter_a(a.support());
  FrequencyCounter counter_b(b.support());
  PairCounter joint(a.support(), b.support());
  const ColumnView view_a(a);
  const ColumnView view_b(b);
  std::vector<ValueCode> scratch_a;
  std::vector<ValueCode> scratch_b;
  constexpr uint64_t kChunk = 4096;
  for (uint64_t begin = 0; begin < m; begin += kChunk) {
    const uint64_t end = std::min(m, begin + kChunk);
    const ValueCode* ca = view_a.Gather(order, begin, end, scratch_a);
    const ValueCode* cb = view_b.Gather(order, begin, end, scratch_b);
    const uint64_t count = end - begin;
    counter_a.AddCodes(ca, count);
    counter_b.AddCodes(cb, count);
    joint.AddCodes(ca, cb, count);
  }
  const double mi = counter_a.SampleEntropy() + counter_b.SampleEntropy() -
                    joint.SampleJointEntropy();
  return mi < 0.0 ? 0.0 : mi;
}

}  // namespace

Result<std::vector<SelectedFeature>> SelectFeaturesMrmr(
    const Table& table, size_t target, const MrmrOptions& options) {
  const size_t h = table.num_columns();
  if (target >= h) {
    return Status::InvalidArgument("mrmr: target index out of range");
  }
  if (h < 2) {
    return Status::InvalidArgument("mrmr: need at least two columns");
  }
  if (options.num_features == 0) {
    return Status::InvalidArgument("mrmr: num_features must be >= 1");
  }
  const size_t want = std::min(options.num_features, h - 1);
  const uint64_t n = table.num_rows();
  const uint64_t m = options.sample_size == 0
                         ? n
                         : std::min<uint64_t>(n, options.sample_size);
  if (m == 0) return Status::InvalidArgument("mrmr: table has no rows");

  const std::vector<uint32_t> order =
      ShuffledRowOrder(static_cast<uint32_t>(n), options.seed);
  const Column& target_col = table.column(target);

  // Relevance of every candidate.
  std::vector<size_t> candidates;
  std::vector<double> relevance(h, 0.0);
  for (size_t j = 0; j < h; ++j) {
    if (j == target) continue;
    candidates.push_back(j);
    relevance[j] = SampledMi(target_col, table.column(j), order, m);
  }

  // Greedy selection with memoized pairwise redundancy sums.
  std::vector<SelectedFeature> selected;
  std::vector<double> redundancy_sum(h, 0.0);
  while (selected.size() < want && !candidates.empty()) {
    size_t best = candidates.front();
    double best_score = -1e300;
    for (size_t j : candidates) {
      const double redundancy =
          selected.empty()
              ? 0.0
              : redundancy_sum[j] / static_cast<double>(selected.size());
      const double score = relevance[j] - redundancy;
      if (score > best_score || (score == best_score && j < best)) {
        best_score = score;
        best = j;
      }
    }
    selected.push_back({best, relevance[best], best_score});
    std::erase(candidates, best);
    for (size_t j : candidates) {
      redundancy_sum[j] +=
          SampledMi(table.column(best), table.column(j), order, m);
    }
  }
  return selected;
}

Result<std::vector<SelectedFeature>> SelectFeaturesByMi(
    const Table& table, size_t target, size_t num_features,
    const QueryOptions& query_options) {
  auto topk = SwopeTopKMi(table, target, num_features, query_options);
  if (!topk.ok()) return topk.status();
  std::vector<SelectedFeature> selected;
  selected.reserve(topk->items.size());
  for (const AttributeScore& item : topk->items) {
    selected.push_back({item.index, item.estimate, item.estimate});
  }
  return selected;
}

}  // namespace swope
