// Table: a columnar dataset D with N rows and h categorical attributes.

#ifndef SWOPE_TABLE_TABLE_H_
#define SWOPE_TABLE_TABLE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/table/column.h"

namespace swope {

/// An immutable columnar table. All columns have the same row count.
/// This mirrors the paper's column-style storage assumption (Section 6.1):
/// queries scan each attribute's values sequentially.
class Table {
 public:
  /// Largest supported row count: sampling indexes rows with uint32_t
  /// (ShuffledRowOrder, PrefixSampler, PermutationCache).
  static constexpr uint64_t kMaxRows = std::numeric_limits<uint32_t>::max();

  /// Validating factory: all columns must share one row count of at most
  /// kMaxRows, and names must be unique and non-empty.
  static Result<Table> Make(std::vector<Column> columns);

  Table() = default;

  /// N: number of rows.
  uint64_t num_rows() const { return num_rows_; }
  /// h: number of attributes.
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t index) const { return columns_[index]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column with `name`, or NotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// All column names, in order.
  std::vector<std::string> ColumnNames() const;

  /// The largest support size u_max across all columns (0 for an empty
  /// table). Used by the M0 policy.
  uint32_t MaxSupport() const;

  /// Exact resident heap bytes across all columns (owned bit-packed
  /// payloads plus label dictionaries; accounting rules in
  /// docs/STORAGE.md). The engine's DatasetRegistry budgets and reports
  /// this number. Mapped payload bytes are MappedBytes().
  uint64_t MemoryBytes() const;

  /// Payload bytes referenced inside mapped regions across all columns
  /// (0 for a fully owned table).
  uint64_t MappedBytes() const;

  /// Resident bytes of all column sketch sidecars (0 when none carry
  /// one). Reported separately: the engine mirrors this into the
  /// swope_sketch_memory_bytes gauge.
  uint64_t SketchMemoryBytes() const;

  /// Returns a table containing only the columns with support size
  /// <= max_support. This is the paper's preprocessing step: "we eliminate
  /// columns with a support size larger than 1000" (Section 6.1).
  Table DropHighSupportColumns(uint32_t max_support) const;

  /// Returns a table with rows permuted: new row r holds old row perm[r].
  /// perm must be a permutation of [0, num_rows).
  Result<Table> PermuteRows(const std::vector<uint32_t>& perm) const;

 private:
  explicit Table(std::vector<Column> columns);

  std::vector<Column> columns_;
  uint64_t num_rows_ = 0;
};

}  // namespace swope

#endif  // SWOPE_TABLE_TABLE_H_
