// Content fingerprint of a Table.
//
// The engine's caches (src/engine/) key entries by table *content*, not
// registry name, so reloading identical data under a new name still hits,
// and replacing a dataset in place can never serve stale answers. The
// fingerprint covers everything that can influence a query answer: shape,
// column names, supports, codes, and label dictionaries.
//
// Codes enter as one digest per column (Column::PayloadDigest): a hash
// of the column's packed payload words and row count. That is a function
// of the logical codes because every Column stores them at the canonical
// width for its support and keeps the bits past its last code zero
// (PackedCodes: Pack and Append write none, FromWords and BorrowWords
// reject any). Heap, mapped, Make-built and append-built copies of one
// table therefore hash equal.
//
// Cost: a column hashes its payload words once, ceil(N * width / 64) of
// them for N rows, and caches the digest, which its copies share. An
// append at unchanged width extends its parent's digest over the new
// words only, so re-fingerprinting an ingested table costs O(batch) per
// column plus the names and labels; a width-crossing append repacks the
// column and rehashes it in full on first use.

#ifndef SWOPE_TABLE_FINGERPRINT_H_
#define SWOPE_TABLE_FINGERPRINT_H_

#include <cstdint>

#include "src/table/table.h"

namespace swope {

/// 64-bit content hash of `table`: a ContentHasher (content_hash.h) over
/// the shape and then, per column, name, support, width, payload digest
/// and labels. Deterministic across runs and platforms of equal
/// endianness assumptions: all values are mixed as integers, never as
/// raw memory. Two tables with equal fingerprints are, for all practical
/// purposes, the same dataset; any difference in rows, row order, names,
/// supports, or labels changes the fingerprint with overwhelming
/// probability.
uint64_t TableFingerprint(const Table& table);

}  // namespace swope

#endif  // SWOPE_TABLE_FINGERPRINT_H_
