#include "src/table/binary_io.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/fs/mapped_file.h"
#include "src/sketch/count_min.h"
#include "src/table/packed_codes.h"

namespace swope {

namespace {

constexpr char kMagic[4] = {'S', 'W', 'P', 'B'};

// First byte of a padding run. Cannot collide with a width byte (widths
// are <= 32), so a one-byte lookahead where the width starts suffices.
constexpr uint8_t kPadMarker = 0xA7;
// Padding runs align to at most a hugepage; anything larger is a lying
// header.
constexpr uint32_t kMaxPadBytes = 1u << 21;
// Padded payloads start on a page boundary of the file, so a mapping
// (page-aligned itself) holds them 8-byte aligned.
constexpr uint64_t kPayloadAlignment = 4096;
// Bytes appended to padded files so borrowed payloads can always be
// decoded with the unconditional two-word read.
constexpr uint64_t kTrailingGuardBytes = 8;
constexpr uint32_t kMaxNameLen = 1 << 20;

// Writers. The format is explicitly little-endian; on big-endian hosts
// these helpers would need byte swaps (not supported, flagged at read).
template <typename T>
void WritePod(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Bounds-checked reader over an SWPB image held in memory (a mapping or
// a buffer). Every accessor fails instead of reading past the image, so
// truncated or lying images surface as Corruption, never as a fault.
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  const uint8_t* here() const { return data_ + pos_; }

  template <typename T>
  bool ReadPod(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string& s, uint32_t max_len) {
    uint32_t len = 0;
    if (!ReadPod(len) || len > max_len || remaining() < len) return false;
    s.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  bool Skip(uint64_t bytes) {
    if (remaining() < bytes) return false;
    pos_ += bytes;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Rejects a header row count above Table::kMaxRows before any column is
// read, so a lying header never costs a validation scan.
Status CheckRowCount(uint64_t num_rows) {
  if (num_rows > Table::kMaxRows) {
    return Status::Corruption("binary table: header claims " +
                              std::to_string(num_rows) +
                              " rows, above the 2^32 - 1 row limit");
  }
  return Status::OK();
}

// Reads a version-1 payload: num_rows 4-byte codes, re-packed by the
// validating factory.
Result<Column> ReadColumnV1(Cursor& in, std::string name, uint32_t support,
                            uint64_t num_rows,
                            std::vector<std::string> labels) {
  // The header check bounds num_rows by the image size, so the byte
  // count cannot overflow.
  const uint8_t* payload = in.here();
  if (!in.Skip(num_rows * sizeof(ValueCode))) {
    return Status::Corruption("binary table: truncated codes in column '" +
                              name + "'");
  }
  std::vector<ValueCode> codes(num_rows);
  if (num_rows > 0) {
    std::memcpy(codes.data(), payload, num_rows * sizeof(ValueCode));
  }
  auto column = Column::Make(std::move(name), support, std::move(codes),
                             std::move(labels));
  if (!column.ok()) {
    return Status::Corruption("binary table: " + column.status().message());
  }
  return column;
}

// Reads a version-2/3 payload: an optional padding run, a declared bit
// width (which must be the canonical width for the declared support),
// then the packed words. With `mapping` set, words that sit 8-byte
// aligned in it with the trailing read guard inside it (the padded
// layout guarantees both) are borrowed in place; all others are copied
// into an owned payload.
Result<Column> ReadColumnPacked(
    Cursor& in, std::string name, uint32_t support, uint64_t num_rows,
    std::vector<std::string> labels,
    const std::shared_ptr<const MappedFile>& mapping) {
  uint8_t width = 0;
  if (!in.ReadPod(width)) {
    return Status::Corruption("binary table: truncated column width");
  }
  if (width == kPadMarker) {
    uint32_t pad = 0;
    if (!in.ReadPod(pad) || pad > kMaxPadBytes) {
      return Status::Corruption("binary table: bad padding run in column '" +
                                name + "'");
    }
    if (!in.Skip(pad) || !in.ReadPod(width)) {
      return Status::Corruption("binary table: truncated column width");
    }
  }
  if (width != PackedCodes::WidthForSupport(support)) {
    return Status::Corruption(
        "binary table: column '" + name + "' declares width " +
        std::to_string(width) + ", expected " +
        std::to_string(PackedCodes::WidthForSupport(support)) +
        " for support " + std::to_string(support));
  }
  // num_rows is untrusted: reject sizes whose bit count would overflow
  // uint64 before calling NumDataWords -- a wrapped word count would pass
  // the bounds check below and FromWords' (same-formula) count check,
  // yielding a PackedCodes that decodes out of bounds.
  if (num_rows > PackedCodes::MaxSizeForWidth(width)) {
    return Status::Corruption(
        "binary table: column '" + name + "' claims " +
        std::to_string(num_rows) + " rows, too many for width " +
        std::to_string(width));
  }
  const uint64_t num_words = PackedCodes::NumDataWords(num_rows, width);
  const uint64_t payload_bytes = num_words * sizeof(uint64_t);
  const size_t payload_pos = in.pos();
  const uint8_t* payload = in.here();
  if (!in.Skip(payload_bytes)) {
    return Status::Corruption("binary table: truncated codes in column '" +
                              name + "'");
  }
  const bool borrow =
      mapping != nullptr && payload_bytes > 0 &&
      reinterpret_cast<uintptr_t>(payload) % alignof(uint64_t) == 0 &&
      payload_pos + payload_bytes + kTrailingGuardBytes <=
          mapping->ReadableBytes();
  Result<PackedCodes> packed = [&]() -> Result<PackedCodes> {
    if (borrow) {
      return PackedCodes::BorrowWords(
          num_rows, width, reinterpret_cast<const uint64_t*>(payload));
    }
    std::vector<uint64_t> words;
    words.reserve(num_words + 1);  // + FromWords' padding word
    words.resize(num_words);
    if (num_words > 0) std::memcpy(words.data(), payload, payload_bytes);
    return PackedCodes::FromWords(num_rows, width, std::move(words));
  }();
  if (!packed.ok()) {
    return Status::Corruption("binary table: column '" + name + "': " +
                              packed.status().message());
  }
  auto column = Column::FromPacked(std::move(name), support,
                                   std::move(packed).value(),
                                   std::move(labels),
                                   borrow ? mapping : nullptr);
  if (!column.ok()) {
    return Status::Corruption("binary table: " + column.status().message());
  }
  return column;
}

// Reads a version-3 sketch sidecar (the bytes after a column's packed
// words): a presence flag, then shape, seed, total count and the counter
// matrix. Shape bounds are checked before any allocation, and
// CountMinSketch::FromParts re-validates everything including the
// conservative-update row-sum invariant, so a corrupted sidecar fails
// with Corruption instead of producing impossible estimates. Counters
// are always copied: sketches are mutated on ingest and are small next
// to the packed payloads.
Result<std::shared_ptr<const CountMinSketch>> ReadSketchSidecar(
    Cursor& in, const std::string& name) {
  uint8_t has_sketch = 0;
  if (!in.ReadPod(has_sketch) || has_sketch > 1) {
    return Status::Corruption(
        "binary table: truncated sketch flag in column '" + name + "'");
  }
  if (has_sketch == 0) {
    return std::shared_ptr<const CountMinSketch>(nullptr);
  }
  uint32_t depth = 0;
  uint32_t width = 0;
  uint64_t seed = 0;
  uint64_t total_count = 0;
  if (!in.ReadPod(depth) || !in.ReadPod(width) || !in.ReadPod(seed) ||
      !in.ReadPod(total_count)) {
    return Status::Corruption(
        "binary table: truncated sketch header in column '" + name + "'");
  }
  if (depth < CountMinSketch::kMinDepth ||
      depth > CountMinSketch::kMaxDepth ||
      width < CountMinSketch::kMinWidth ||
      width > CountMinSketch::kMaxWidth) {
    return Status::Corruption("binary table: column '" + name +
                              "' sketch has invalid shape " +
                              std::to_string(depth) + "x" +
                              std::to_string(width));
  }
  // depth <= 16 and width <= 2^24, so the product cannot overflow uint64.
  const uint64_t num_counters =
      static_cast<uint64_t>(depth) * static_cast<uint64_t>(width);
  const uint8_t* at = in.here();
  if (!in.Skip(num_counters * sizeof(uint64_t))) {
    return Status::Corruption(
        "binary table: truncated sketch counters in column '" + name + "'");
  }
  std::vector<uint64_t> counters(num_counters);
  std::memcpy(counters.data(), at, num_counters * sizeof(uint64_t));
  auto sketch = CountMinSketch::FromParts(depth, width, seed, total_count,
                                          std::move(counters));
  if (!sketch.ok()) {
    return Status::Corruption("binary table: column '" + name +
                              "' sketch: " + sketch.status().message());
  }
  return std::make_shared<const CountMinSketch>(std::move(sketch).value());
}

// The one SWPB parser, for every version and every loader. `image` holds
// `size` bytes; every bound is checked against that size before the
// bytes are read or anything is allocated for them. `mapping`, when set,
// is the mapping `image` lies in, and lets column payloads be borrowed
// from it (ReadColumnPacked); when null, the table owns all its bytes.
Result<Table> ParseBinaryTable(
    const uint8_t* image, size_t size,
    const std::shared_ptr<const MappedFile>& mapping) {
  Cursor in(image, size);
  char magic[4];
  if (!in.ReadPod(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("binary table: bad magic");
  }
  uint32_t version = 0;
  if (!in.ReadPod(version) ||
      (version != kBinaryTableVersion && version != kBinaryTableVersionV1 &&
       version != kBinaryTableVersionV3)) {
    return Status::Corruption(
        "binary table: unsupported version " + std::to_string(version) +
        " (supported: " + std::to_string(kBinaryTableVersionV1) + ", " +
        std::to_string(kBinaryTableVersion) + ", " +
        std::to_string(kBinaryTableVersionV3) + ")");
  }
  uint64_t num_rows = 0;
  uint32_t num_columns = 0;
  if (!in.ReadPod(num_rows) || !in.ReadPod(num_columns)) {
    return Status::Corruption("binary table: truncated header");
  }
  SWOPE_RETURN_NOT_OK(CheckRowCount(num_rows));
  // Lower-bound the bytes the header promises against what the image
  // holds. Version 1 columns cost at least their 9-byte fixed header plus
  // num_rows 4-byte codes; version 2 columns cost at least a 10-byte
  // header (payload words are checked per column once the width is
  // known, since a width of 0 legitimately has no payload). A corrupt
  // header claiming billions of rows or columns fails here with
  // Corruption instead of entering the read loop at all.
  {
    const uint64_t avail = in.remaining();
    uint64_t per_column =
        sizeof(uint32_t) + sizeof(uint32_t) + sizeof(uint8_t);
    if (version == kBinaryTableVersionV1) {
      if (num_rows > avail / sizeof(ValueCode)) {
        return Status::Corruption(
            "binary table: header claims more data than the stream holds");
      }
      per_column += num_rows * sizeof(ValueCode);
    } else {
      // v2: the width byte. v3 additionally promises the sketch flag.
      per_column += sizeof(uint8_t);
      if (version == kBinaryTableVersionV3) per_column += sizeof(uint8_t);
    }
    if (num_columns > 0 && per_column > avail / num_columns) {
      return Status::Corruption(
          "binary table: header claims more data than the stream holds");
    }
  }
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string name;
    uint32_t support = 0;
    uint8_t has_labels = 0;
    if (!in.ReadString(name, kMaxNameLen) || !in.ReadPod(support) ||
        !in.ReadPod(has_labels) || has_labels > 1) {
      return Status::Corruption("binary table: truncated column header");
    }
    std::vector<std::string> labels;
    if (has_labels != 0) {
      // A corrupt header can claim any support; every label takes at
      // least its length field, so reserve no more than the image holds.
      labels.reserve(
          std::min<uint64_t>(support, in.remaining() / sizeof(uint32_t)));
      for (uint32_t v = 0; v < support; ++v) {
        std::string label;
        if (!in.ReadString(label, kMaxNameLen)) {
          return Status::Corruption("binary table: truncated labels");
        }
        labels.push_back(std::move(label));
      }
    }
    auto column =
        version == kBinaryTableVersionV1
            ? ReadColumnV1(in, std::move(name), support, num_rows,
                           std::move(labels))
            : ReadColumnPacked(in, std::move(name), support, num_rows,
                               std::move(labels), mapping);
    if (!column.ok()) return column.status();
    if (version == kBinaryTableVersionV3) {
      auto sketch = ReadSketchSidecar(in, column.value().name());
      if (!sketch.ok()) return sketch.status();
      if (sketch.value() != nullptr) {
        columns.push_back(
            std::move(column).value().WithSketch(std::move(sketch).value()));
        continue;
      }
    }
    columns.push_back(std::move(column).value());
  }
  auto table = Table::Make(std::move(columns));
  if (!table.ok()) {
    return Status::Corruption("binary table: " + table.status().message());
  }
  return table;
}

}  // namespace

Status WriteBinaryTable(const Table& table, std::ostream& output,
                        const BinaryWriteOptions& options) {
  // Sketch-free tables keep version-2 files; the sidecar section exists
  // only in version 3.
  const bool any_sketch = table.SketchMemoryBytes() > 0;
  const uint32_t version =
      any_sketch ? kBinaryTableVersionV3 : kBinaryTableVersion;
  output.write(kMagic, sizeof(kMagic));
  WritePod<uint32_t>(output, version);
  WritePod<uint64_t>(output, table.num_rows());
  WritePod<uint32_t>(output, static_cast<uint32_t>(table.num_columns()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    WriteString(output, col.name());
    WritePod<uint32_t>(output, col.support());
    WritePod<uint8_t>(output, col.has_labels() ? 1 : 0);
    if (col.has_labels()) {
      for (const std::string& label : col.labels()) {
        WriteString(output, label);
      }
    }
    const PackedCodes& packed = col.packed();
    if (options.page_align && packed.num_data_words() > 0) {
      // Pad so the packed words land kPayloadAlignment-aligned in the
      // file (offsets are relative to the stream start, which is the
      // file start on the save path). Unseekable sinks skip the run; the
      // format stays valid either way.
      const std::ostream::pos_type pos = output.tellp();
      if (pos != std::ostream::pos_type(-1)) {
        // Payload starts after the 1-byte marker, the u32 length, the
        // zeros, and the width byte.
        const uint64_t header_end = static_cast<uint64_t>(pos) + 6;
        const uint32_t pad = static_cast<uint32_t>(
            (kPayloadAlignment - header_end % kPayloadAlignment) %
            kPayloadAlignment);
        WritePod<uint8_t>(output, kPadMarker);
        WritePod<uint32_t>(output, pad);
        static constexpr char kZeros[256] = {};
        for (uint32_t left = pad; left > 0;) {
          const uint32_t chunk = std::min<uint32_t>(left, sizeof(kZeros));
          output.write(kZeros, chunk);
          left -= chunk;
        }
      }
    }
    WritePod<uint8_t>(output, static_cast<uint8_t>(packed.width()));
    output.write(reinterpret_cast<const char*>(packed.data_words()),
                 static_cast<std::streamsize>(packed.num_data_words() *
                                              sizeof(uint64_t)));
    if (version == kBinaryTableVersionV3) {
      WritePod<uint8_t>(output, col.has_sketch() ? 1 : 0);
      if (col.has_sketch()) {
        const CountMinSketch& sketch = *col.sketch();
        WritePod<uint32_t>(output, sketch.depth());
        WritePod<uint32_t>(output, sketch.width());
        WritePod<uint64_t>(output, sketch.seed());
        WritePod<uint64_t>(output, sketch.total_count());
        output.write(reinterpret_cast<const char*>(sketch.counters()),
                     static_cast<std::streamsize>(sketch.num_counters() *
                                                  sizeof(uint64_t)));
      }
    }
  }
  if (options.page_align) {
    // Trailing guard so a borrowed final payload can end flush with the
    // data and still honor the 8-bytes-past-payload read contract.
    // Readers stop at the declared columns and ignore trailing bytes.
    static constexpr char kGuard[kTrailingGuardBytes] = {};
    output.write(kGuard, sizeof(kGuard));
  }
  if (!output) return Status::IOError("binary table: write failed");
  return Status::OK();
}

Status WriteBinaryTableFile(const Table& table, const std::string& path,
                            const BinaryWriteOptions& options) {
  // Write a uniquely named sibling and rename it over `path` once it is
  // complete. A failed write then leaves `path` as it was, and a process
  // that mapped the old file keeps reading the old inode: rewriting it in
  // place would truncate the pages under that mapping (SIGBUS).
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp = path + ".tmp" + std::to_string(::getpid()) +
                           "." + std::to_string(next_temp.fetch_add(1));
  Status status = [&] {
    std::ofstream file(temp, std::ios::binary);
    if (!file) {
      return Status::IOError("binary table: cannot open '" + path + "'");
    }
    SWOPE_RETURN_NOT_OK(WriteBinaryTable(table, file, options));
    file.close();
    if (!file) return Status::IOError("binary table: write failed");
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
      return Status::IOError("binary table: cannot replace '" + path +
                             "': " + std::strerror(errno));
    }
    return Status::OK();
  }();
  if (!status.ok()) std::remove(temp.c_str());
  return status;
}

Result<Table> ReadBinaryTable(std::istream& input) {
  std::ostringstream buffer;
  buffer << input.rdbuf();
  const std::string image = std::move(buffer).str();
  return ParseBinaryTable(reinterpret_cast<const uint8_t*>(image.data()),
                          image.size(), nullptr);
}

Result<Table> ReadBinaryTableFile(const std::string& path) {
  // The table copies everything it keeps, so the mapping is unmapped on
  // return and the file can be rewritten while the table lives.
  SWOPE_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                         MappedFile::Open(path));
  return ParseBinaryTable(file->data(), file->size(), nullptr);
}

Result<Table> ReadBinaryTableFileMapped(const std::string& path) {
  SWOPE_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                         MappedFile::Open(path));
  return ParseBinaryTable(file->data(), file->size(), file);
}

}  // namespace swope
