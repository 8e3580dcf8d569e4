#include "src/table/table.h"

#include <algorithm>
#include <unordered_set>

namespace swope {

Table::Table(std::vector<Column> columns) : columns_(std::move(columns)) {
  num_rows_ = columns_.empty() ? 0 : columns_.front().size();
}

Result<Table> Table::Make(std::vector<Column> columns) {
  std::unordered_set<std::string> names;
  for (const Column& col : columns) {
    if (col.name().empty()) {
      return Status::InvalidArgument("table: column with empty name");
    }
    if (!names.insert(col.name()).second) {
      return Status::InvalidArgument("table: duplicate column name '" +
                                     col.name() + "'");
    }
    if (col.size() != columns.front().size()) {
      return Status::InvalidArgument(
          "table: column '" + col.name() + "' has " +
          std::to_string(col.size()) + " rows, expected " +
          std::to_string(columns.front().size()));
    }
  }
  if (!columns.empty() && columns.front().size() > kMaxRows) {
    return Status::InvalidArgument(
        "table: row count " + std::to_string(columns.front().size()) +
        " exceeds the 2^32 - 1 row limit");
  }
  return Table(std::move(columns));
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  return Status::NotFound("table: no column named '" + name + "'");
}

std::vector<std::string> Table::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const Column& col : columns_) names.push_back(col.name());
  return names;
}

uint32_t Table::MaxSupport() const {
  uint32_t max_support = 0;
  for (const Column& col : columns_) {
    max_support = std::max(max_support, col.support());
  }
  return max_support;
}

uint64_t Table::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const Column& col : columns_) bytes += col.MemoryBytes();
  return bytes;
}

uint64_t Table::MappedBytes() const {
  uint64_t bytes = 0;
  for (const Column& col : columns_) bytes += col.MappedBytes();
  return bytes;
}

uint64_t Table::SketchMemoryBytes() const {
  uint64_t bytes = 0;
  for (const Column& col : columns_) bytes += col.SketchMemoryBytes();
  return bytes;
}

Table Table::DropHighSupportColumns(uint32_t max_support) const& {
  std::vector<Column> kept;
  for (const Column& col : columns_) {
    if (col.support() <= max_support) kept.push_back(col);
  }
  return Table(std::move(kept));
}

Table Table::DropHighSupportColumns(uint32_t max_support) && {
  std::erase_if(columns_, [max_support](const Column& col) {
    return col.support() > max_support;
  });
  return Table(std::move(columns_));
}

Result<Table> Table::PermuteRows(const std::vector<uint32_t>& perm) const {
  if (perm.size() != num_rows_) {
    return Status::InvalidArgument(
        "permute: permutation size " + std::to_string(perm.size()) +
        " != row count " + std::to_string(num_rows_));
  }
  std::vector<bool> seen(perm.size(), false);
  for (uint32_t p : perm) {
    if (p >= perm.size() || seen[p]) {
      return Status::InvalidArgument("permute: not a permutation");
    }
    seen[p] = true;
  }
  std::vector<Column> permuted;
  permuted.reserve(columns_.size());
  for (const Column& col : columns_) {
    // One batch gather per column: decode col[perm[r]] for every row.
    std::vector<ValueCode> codes(col.size());
    col.packed().Gather(perm.data(), perm.size(), codes.data());
    std::vector<std::string> labels = col.labels();
    auto made =
        Column::Make(col.name(), col.support(), std::move(codes), labels);
    if (!made.ok()) return made.status();
    permuted.push_back(std::move(made).value());
  }
  return Table(std::move(permuted));
}

}  // namespace swope
