// Whole-column count-min sidecars.
//
// A sidecar summarizes an entire column's value stream in one
// CountMinSketch, decoupled from the query-local sketches the scorers
// build over sampled prefixes (src/core/sketch_estimation.h). Sidecars
// serve two jobs: they persist through binary_io (format v3), so a
// reload skips the O(N) summary pass, and streaming ingest
// (src/table/append.h) maintains them incrementally -- clone, absorb the
// appended tail, reattach -- instead of rescanning the column.
// docs/SKETCH.md covers the semantics.

#ifndef SWOPE_TABLE_SKETCH_SIDECAR_H_
#define SWOPE_TABLE_SKETCH_SIDECAR_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/sketch/count_min.h"
#include "src/table/column.h"
#include "src/table/table.h"

namespace swope {

/// Streams every code of `column` through a fresh (epsilon, delta)
/// sketch. The hash seed is a pure function of `seed` and the column
/// name, so rebuilding the same column yields a byte-identical sidecar.
Result<CountMinSketch> BuildColumnSketch(const Column& column,
                                         double epsilon, double delta,
                                         uint64_t seed);

/// Returns `table` with a freshly built sidecar on every column with
/// support > `min_support`, and none on the others (the exact path never
/// consults a sketch); existing sidecars are rebuilt. The columns are
/// moved, not copied: pass `std::move(table)` to attach without copying
/// the payload.
Result<Table> AttachSketches(Table table, double epsilon, double delta,
                             uint32_t min_support, uint64_t seed);

}  // namespace swope

#endif  // SWOPE_TABLE_SKETCH_SIDECAR_H_
