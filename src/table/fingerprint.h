// Content fingerprint of a Table.
//
// The engine's caches (src/engine/) key entries by table *content*, not
// registry name, so reloading identical data under a new name still hits,
// and replacing a dataset in place can never serve stale answers. The
// fingerprint covers everything that can influence a query answer: shape,
// column names, supports, codes, and label dictionaries.
//
// Codes are hashed as their packed payload words, not decoded: each
// column contributes its width and then its num_data_words() words. That
// is a function of the logical codes because every Column stores them at
// the canonical width for its support and keeps the bits past its last
// code zero (PackedCodes: Pack and Append write none, FromWords and
// BorrowWords reject any). Heap, mapped, Make-built and append-built
// copies of one table therefore hash equal. Cost: one pass over the
// payload words, ceil(N * width / 64) per column of N rows -- at the cdc
// preset's widths about 1/13 as many hash steps as one per code.

#ifndef SWOPE_TABLE_FINGERPRINT_H_
#define SWOPE_TABLE_FINGERPRINT_H_

#include <cstdint>

#include "src/table/table.h"

namespace swope {

/// 64-bit content hash of `table` (FNV-1a over a canonical serialization,
/// strengthened with a SplitMix64 finalizer per field; each payload word
/// is one field). Deterministic across runs and platforms of equal
/// endianness assumptions: all values are mixed as integers, never as
/// raw memory. Two tables with equal fingerprints are, for all practical
/// purposes, the same dataset; any difference in rows, row order, names,
/// supports, or labels changes the fingerprint with overwhelming
/// probability.
uint64_t TableFingerprint(const Table& table);

}  // namespace swope

#endif  // SWOPE_TABLE_FINGERPRINT_H_
