#include "src/table/append.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sketch/count_min.h"

namespace swope {

namespace {

// Parses a decimal code for a label-less column (the inverse of
// Column::LabelOf's fallback). Codes are capped below UINT32_MAX so the
// all-ones FlatHashMap sentinel and the (a << 32) | b pair keying stay
// unambiguous.
Result<ValueCode> ParseCode(const std::string& raw,
                            const std::string& column) {
  if (raw.empty() || raw.size() > 10) {
    return Status::InvalidArgument("append: value '" + raw +
                                   "' for label-less column '" + column +
                                   "' is not a decimal code");
  }
  uint64_t value = 0;
  for (char c : raw) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("append: value '" + raw +
                                     "' for label-less column '" + column +
                                     "' is not a decimal code");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("append: code " + raw + " for column '" +
                                   column + "' is out of range");
  }
  return static_cast<ValueCode>(value);
}

}  // namespace

Result<Table> AppendRowsToTable(
    const Table& table, const std::vector<std::vector<std::string>>& rows) {
  const size_t h = table.num_columns();
  if (h == 0) {
    return Status::InvalidArgument("append: table has no columns");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("append: no rows to append");
  }
  for (const std::vector<std::string>& row : rows) {
    if (row.size() != h) {
      return Status::InvalidArgument(
          "append: row has " + std::to_string(row.size()) +
          " values, expected " + std::to_string(h));
    }
  }
  const uint64_t new_rows = table.num_rows() + rows.size();
  if (new_rows > Table::kMaxRows) {
    return Status::InvalidArgument(
        "append: row count " + std::to_string(new_rows) +
        " exceeds the 2^32 - 1 row limit");
  }

  std::vector<Column> columns;
  columns.reserve(h);
  for (size_t j = 0; j < h; ++j) {
    const Column& col = table.column(j);
    std::vector<ValueCode> tail;
    tail.reserve(rows.size());
    std::vector<std::string> labels = col.labels();
    uint32_t support = col.support();
    if (col.has_labels()) {
      std::unordered_map<std::string, ValueCode> dictionary;
      dictionary.reserve(labels.size());
      for (size_t v = 0; v < labels.size(); ++v) {
        dictionary.emplace(labels[v], static_cast<ValueCode>(v));
      }
      for (const std::vector<std::string>& row : rows) {
        auto [it, inserted] = dictionary.try_emplace(
            row[j], static_cast<ValueCode>(labels.size()));
        if (inserted) {
          if (labels.size() >=
              std::numeric_limits<uint32_t>::max() - 1) {
            return Status::InvalidArgument("append: column '" + col.name() +
                                           "' dictionary overflow");
          }
          labels.push_back(row[j]);
        }
        tail.push_back(it->second);
      }
      support = static_cast<uint32_t>(labels.size());
    } else {
      for (const std::vector<std::string>& row : rows) {
        SWOPE_ASSIGN_OR_RETURN(ValueCode code, ParseCode(row[j], col.name()));
        tail.push_back(code);
        if (code >= support) support = code + 1;
      }
    }

    std::shared_ptr<const CountMinSketch> sketch;
    if (col.has_sketch()) {
      // Incremental sidecar maintenance: clone, absorb just the tail.
      CountMinSketch updated = col.sketch()->Clone();
      updated.AddCodes(tail.data(), tail.size());
      sketch = std::make_shared<const CountMinSketch>(std::move(updated));
    }

    // Width-stable appends copy the payload words verbatim, pack only
    // the tail and extend the column's digest; a support that crossed a
    // power-of-two boundary repacks the column. Either way the result
    // owns its words, so an appended mapped column does not hold on to
    // the mapping.
    SWOPE_ASSIGN_OR_RETURN(
        Column column,
        col.Append(tail, support, std::move(labels), std::move(sketch)));
    columns.push_back(std::move(column));
  }
  return Table::Make(std::move(columns));
}

}  // namespace swope
