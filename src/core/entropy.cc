#include "src/core/entropy.h"

#include <algorithm>

#include "src/common/flat_hash_map.h"
#include "src/common/math.h"
#include "src/table/column_view.h"

namespace swope {

namespace {

// Threshold (in cells) below which a dense joint-count table is used.
constexpr uint64_t kDenseJointLimit = 1ULL << 22;  // 4M cells = 32 MB

// Decode chunk for the exact sequential scans below: big enough to
// amortize the kernel dispatch, small enough to stay in L1.
constexpr uint64_t kDecodeChunk = 4096;

}  // namespace

double ExactEntropy(const Column& column) {
  // Its own full pass, not Column::ValueCounts: the Exact baseline pays
  // one scan per column, and that scan is what its timings measure.
  std::vector<uint64_t> counts(column.support(), 0);
  column.packed().CountValues(counts.data(), counts.size());
  return EntropyFromCounts(counts, column.size());
}

Result<double> ExactJointEntropy(const Column& a, const Column& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("joint entropy: column sizes differ (" +
                                   std::to_string(a.size()) + " vs " +
                                   std::to_string(b.size()) + ")");
  }
  const uint64_t n = a.size();
  if (n == 0) return 0.0;
  const uint64_t cells =
      static_cast<uint64_t>(a.support()) * static_cast<uint64_t>(b.support());
  double sum_xlog2x = 0.0;
  const ColumnView view_a(a);
  const ColumnView view_b(b);
  std::vector<ValueCode> scratch_a;
  std::vector<ValueCode> scratch_b;
  if (cells > 0 && cells <= kDenseJointLimit) {
    std::vector<uint64_t> counts(cells, 0);
    const uint32_t ub = b.support();
    for (uint64_t begin = 0; begin < n; begin += kDecodeChunk) {
      const uint64_t end = std::min(n, begin + kDecodeChunk);
      const ValueCode* ca = view_a.Decode(begin, end, scratch_a);
      const ValueCode* cb = view_b.Decode(begin, end, scratch_b);
      for (uint64_t i = 0; i < end - begin; ++i) {
        ++counts[static_cast<uint64_t>(ca[i]) * ub + cb[i]];
      }
    }
    for (uint64_t c : counts) {
      if (c > 1) sum_xlog2x += XLog2X(static_cast<double>(c));
    }
  } else {
    FlatHashMap<uint64_t, uint64_t> counts(1 << 12);
    for (uint64_t begin = 0; begin < n; begin += kDecodeChunk) {
      const uint64_t end = std::min(n, begin + kDecodeChunk);
      const ValueCode* ca = view_a.Decode(begin, end, scratch_a);
      const ValueCode* cb = view_b.Decode(begin, end, scratch_b);
      for (uint64_t i = 0; i < end - begin; ++i) {
        const uint64_t key = (static_cast<uint64_t>(ca[i]) << 32) | cb[i];
        ++counts[key];
      }
    }
    counts.ForEach([&](uint64_t, uint64_t c) {
      if (c > 1) sum_xlog2x += XLog2X(static_cast<double>(c));
    });
  }
  return EntropyFromXLog2XSum(sum_xlog2x, n);
}

Result<double> ExactMutualInformation(const Column& a, const Column& b) {
  auto joint = ExactJointEntropy(a, b);
  if (!joint.ok()) return joint.status();
  const double mi = ExactEntropy(a) + ExactEntropy(b) - *joint;
  return mi < 0.0 ? 0.0 : mi;
}

std::vector<double> ExactEntropies(const Table& table) {
  std::vector<double> entropies;
  entropies.reserve(table.num_columns());
  for (const Column& column : table.columns()) {
    entropies.push_back(ExactEntropy(column));
  }
  return entropies;
}

Result<std::vector<double>> ExactMutualInformations(const Table& table,
                                                    size_t target) {
  if (target >= table.num_columns()) {
    return Status::InvalidArgument("exact MI: target index out of range");
  }
  // Scan the target's marginal once; per candidate only its marginal and
  // the joint pass remain (2 passes per candidate, the baseline cost the
  // paper's Exact competitor pays).
  const double target_entropy = ExactEntropy(table.column(target));
  std::vector<double> mis(table.num_columns(), 0.0);
  for (size_t j = 0; j < table.num_columns(); ++j) {
    if (j == target) continue;
    auto joint = ExactJointEntropy(table.column(target), table.column(j));
    if (!joint.ok()) return joint.status();
    const double mi =
        target_entropy + ExactEntropy(table.column(j)) - *joint;
    mis[j] = mi < 0.0 ? 0.0 : mi;
  }
  return mis;
}

}  // namespace swope
