// Binary column-store format for fast save/load of encoded tables.
//
// Layout (little-endian; full wire spec in docs/STORAGE.md):
//   magic "SWPB" | u32 version | u64 num_rows | u32 num_columns
//   per column:
//     u32 name_len | name bytes
//     u32 support
//     u8  has_labels
//     if has_labels: support x (u32 len | bytes)
//     version 1: num_rows x u32 codes
//     version 2: [padding run] u8 width
//                | ceil(num_rows*width/64) x u64 packed words
//     version 3: as version 2, then
//       u8 has_sketch
//       if has_sketch: u32 depth | u32 width | u64 seed | u64 total_count
//                      | depth*width x u64 counters
//
// The optional padding run -- u8 0xA7 marker | u32 pad_len | pad_len
// zero bytes -- sits where the width byte otherwise starts. 0xA7 cannot
// be a width (widths are <= 32), so one-byte lookahead disambiguates and
// a single reader accepts padded and legacy images alike. Writers emit
// it (by default) to start each non-empty column payload on a 4096-byte
// boundary so the mmap load path can borrow packed words straight out of
// the mapping; padded files additionally end with 8 guard bytes so the
// borrowed two-word decode reads stay inside the mapping.
//
// Version 2 stores each column's codes bit-packed at the canonical width
// ceil(log2(support)) -- the exact in-memory representation
// (src/table/packed_codes.h) -- so loading is a header parse plus one
// contiguous read per column, and the file is 4-8x smaller for typical
// categorical supports. Version 3 adds an optional count-min sidecar per
// column (src/table/sketch_sidecar.h) and is emitted only when at least
// one column carries one, so sketch-free tables keep byte-identical v2
// files. Writers emit version 2 or 3 accordingly; the reader accepts all
// three versions (v1 stores 4-byte codes and is re-packed on load;
// `swope_cli convert` re-encodes v1 files in place of re-generating).
//
// Loading a binary table skips dictionary building entirely, which is the
// point: re-running experiments over a generated dataset becomes I/O bound
// rather than parse bound.

#ifndef SWOPE_TABLE_BINARY_IO_H_
#define SWOPE_TABLE_BINARY_IO_H_

#include <istream>
#include <ostream>
#include <string>

#include "src/common/result.h"
#include "src/table/table.h"

namespace swope {

/// Current format version (bit-packed payload), written for tables
/// without sketch sidecars.
inline constexpr uint32_t kBinaryTableVersion = 2;
/// Legacy 4-bytes-per-code version, still readable.
inline constexpr uint32_t kBinaryTableVersionV1 = 1;
/// Version with per-column count-min sidecars, written only when at
/// least one column carries a sketch.
inline constexpr uint32_t kBinaryTableVersionV3 = 3;

/// Write-side knobs. Defaults produce mmap-friendly files; set
/// page_align to false to reproduce the pre-padding byte layout.
struct BinaryWriteOptions {
  /// Start every non-empty column payload on a 4096-byte boundary with a
  /// padding run so the mmap load path can borrow packed words in place.
  /// Readers accept padded and unpadded images alike.
  bool page_align = true;
};

/// Serializes `table` to the binary column-store format: version 3 when
/// any column carries a sketch sidecar, version 2 otherwise.
Status WriteBinaryTable(const Table& table, std::ostream& output,
                        const BinaryWriteOptions& options = {});
/// Writes the image to a temporary file beside `path` and renames it over
/// `path`, so `path` is replaced whole or, on any failure, left as it was
/// (the temporary file is removed). A table mapped from the old file
/// keeps reading the old contents.
Status WriteBinaryTableFile(const Table& table, const std::string& path,
                            const BinaryWriteOptions& options = {});

// The three loaders below share one parser, which reads versions 1, 2
// and 3, checks every declared size against the image's size before
// reading or allocating for it, and validates all structural invariants
// (code ranges, packed widths, the zero tail, label counts, sketch shapes
// and counter sums). A corrupt or truncated image returns Corruption,
// with the same message from every loader.

/// Reads the rest of `input` into a buffer and parses it. The table owns
/// all its bytes.
Result<Table> ReadBinaryTable(std::istream& input);

/// Maps `path`, which must be a regular file (IOError otherwise), copies
/// the table out of the mapping and unmaps it before returning: the table
/// owns all its bytes (Table::MappedBytes() is 0), and the file may be
/// truncated or rewritten while the table lives.
Result<Table> ReadBinaryTableFile(const std::string& path);

/// Maps `path`, which must be a regular file (IOError otherwise), and
/// keeps the mapping: column payloads that sit 8-byte aligned in the file
/// with the trailing read guard intact (any payload written with
/// BinaryWriteOptions::page_align) are borrowed straight from it. Those
/// columns keep the MappedFile alive, and their bytes count as
/// Table::MappedBytes() rather than MemoryBytes(). Unaligned legacy and
/// v1 payloads, label dictionaries, and sketch sidecars are copied to the
/// heap.
Result<Table> ReadBinaryTableFileMapped(const std::string& path);

}  // namespace swope

#endif  // SWOPE_TABLE_BINARY_IO_H_
