// Streaming ingest: append raw rows to an immutable Table without a full
// re-encode.
//
// Tables are value types, so "append" means building a successor table
// that shares as much work as possible with its predecessor:
//   * each column's bit-packed payload is extended in place-shape --
//     copied words plus packed tail -- as long as the dictionary growth
//     does not cross a power-of-two width boundary; only a boundary
//     crossing repacks that one column,
//   * label dictionaries grow by the new values in first-seen order,
//     exactly as TableBuilder would have assigned them,
//   * count-min sidecars (src/table/sketch_sidecar.h) are cloned and
//     absorb just the appended codes, and
//   * at an unchanged width each column's payload digest extends its
//     parent's over the new words (Column::Append), so fingerprinting
//     the result costs O(batch) per column.
// The result is a table whose fingerprint differs from the original's,
// which is what keys cache invalidation in the engine (a re-registered
// dataset drops every cached answer). See docs/SKETCH.md.

#ifndef SWOPE_TABLE_APPEND_H_
#define SWOPE_TABLE_APPEND_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/table/table.h"

namespace swope {

/// Appends `rows` (each exactly one raw string value per column, in
/// column order) to `table`. Values of labeled columns are matched
/// against the dictionary, new values extending it in first-seen order;
/// values of label-less columns must parse as decimal codes (the inverse
/// of Column::LabelOf's fallback), and may extend the support. Fails
/// with InvalidArgument on a malformed row without modifying anything --
/// the input table is untouched either way.
Result<Table> AppendRowsToTable(
    const Table& table, const std::vector<std::vector<std::string>>& rows);

}  // namespace swope

#endif  // SWOPE_TABLE_APPEND_H_
