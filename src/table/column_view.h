// ColumnView: the hot-path batch-decode accessor over a Column.
//
// Query kernels never touch packed words or per-row code() lookups;
// they gather the slice of rows they need into a caller-owned scratch
// buffer and run their counting loops over plain uint32 spans:
//
//   ColumnView view(column);
//   const ValueCode* codes = view.Gather(order, begin, end, scratch);
//   counter.AddCodes(codes, end - begin);
//
// This splits decode from counting: the width-specialized decode kernel
// (src/table/packed_codes.h) and the count loop each stay branch-free,
// and the scratch buffer is reusable across rounds so steady-state
// queries allocate nothing. tools/lint.py bans raw `.codes()` / per-row
// `.code(row)` access outside src/table/ and tests to keep this the only
// hot-path route. The full contract lives in docs/STORAGE.md.

#ifndef SWOPE_TABLE_COLUMN_VIEW_H_
#define SWOPE_TABLE_COLUMN_VIEW_H_

#include <cstdint>
#include <vector>

#include "src/table/column.h"

namespace swope {

/// A lightweight non-owning accessor; valid while the Column lives.
class ColumnView {
 public:
  ColumnView() = default;
  explicit ColumnView(const Column& column)
      : codes_(&column.packed()), support_(column.support()) {}

  uint64_t size() const { return codes_->size(); }
  uint32_t support() const { return support_; }
  uint32_t width() const { return codes_->width(); }

  /// Decodes the values at rows order[begin..end) (a permutation
  /// slice) into `scratch`, growing it as needed, and returns the decoded
  /// span's base pointer. The span is valid until the next call with the
  /// same scratch buffer. Preserves the slice order (the sketch path's
  /// conservative-update counting depends on it).
  /// `Buffer` is any contiguous resizable ValueCode container --
  /// std::vector for pooled scratch, std::pmr::vector for arena-backed
  /// per-query slices.
  template <typename Buffer>
  const ValueCode* Gather(const std::vector<uint32_t>& order,
                          uint64_t begin, uint64_t end,
                          Buffer& scratch) const {
    const uint64_t count = end - begin;
    if (scratch.size() < count) scratch.resize(count);
    codes_->Gather(order.data() + begin, count, scratch.data());
    return scratch.data();
  }

  /// Decodes the contiguous row range [begin, end) into `scratch` and
  /// returns the decoded span's base pointer (sequential-scan paths:
  /// exact baselines, fingerprinting).
  template <typename Buffer>
  const ValueCode* Decode(uint64_t begin, uint64_t end,
                          Buffer& scratch) const {
    const uint64_t count = end - begin;
    if (scratch.size() < count) scratch.resize(count);
    codes_->Decode(begin, end, scratch.data());
    return scratch.data();
  }

 private:
  const PackedCodes* codes_ = nullptr;
  uint32_t support_ = 0;
};

}  // namespace swope

#endif  // SWOPE_TABLE_COLUMN_VIEW_H_
