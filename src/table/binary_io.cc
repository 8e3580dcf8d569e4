#include "src/table/binary_io.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
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
// Bytes appended to padded files so borrowed payloads can always be
// decoded with the unconditional two-word read.
constexpr uint64_t kTrailingGuardBytes = 8;

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

template <typename T>
bool ReadPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return in.gcount() == sizeof(value);
}

bool ReadString(std::istream& in, std::string& s, uint32_t max_len) {
  uint32_t len = 0;
  if (!ReadPod(in, len) || len > max_len) return false;
  s.resize(len);
  in.read(s.data(), len);
  return static_cast<uint32_t>(in.gcount()) == len;
}

// Returns the number of bytes left in `in`, or -1 when the stream is not
// seekable (e.g. a pipe), in which case upfront size validation is
// skipped and truncation is caught by the chunked reads instead.
std::streamoff RemainingBytes(std::istream& in) {
  const std::istream::pos_type cur = in.tellg();
  if (cur == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(cur);
  if (!in || end == std::istream::pos_type(-1) || end < cur) return -1;
  return end - cur;
}

// Reads a version-1 payload: num_rows 4-byte codes, then re-packs via the
// validating factory. Chunked so a lying header fails with Corruption
// rather than one huge allocation.
Result<Column> ReadColumnV1(std::istream& input, std::string name,
                            uint32_t support, uint64_t num_rows,
                            std::vector<std::string> labels) {
  std::vector<ValueCode> codes;
  codes.reserve(std::min<uint64_t>(num_rows, 1 << 20));
  constexpr uint64_t kChunkRows = 1 << 20;
  uint64_t remaining = num_rows;
  while (remaining > 0) {
    const uint64_t chunk = std::min(remaining, kChunkRows);
    const size_t old_size = codes.size();
    codes.resize(old_size + chunk);
    const auto bytes =
        static_cast<std::streamsize>(chunk * sizeof(ValueCode));
    input.read(reinterpret_cast<char*>(codes.data() + old_size), bytes);
    if (input.gcount() != bytes) {
      return Status::Corruption("binary table: truncated codes in column '" +
                                name + "'");
    }
    remaining -= chunk;
  }
  auto column = Column::Make(std::move(name), support, std::move(codes),
                             std::move(labels));
  if (!column.ok()) {
    return Status::Corruption("binary table: " + column.status().message());
  }
  return column;
}

// Reads a version-2 payload: a declared bit width (which must be the
// canonical width for the declared support) followed by the packed words.
Result<Column> ReadColumnV2(std::istream& input, std::string name,
                            uint32_t support, uint64_t num_rows,
                            std::vector<std::string> labels) {
  uint8_t width = 0;
  if (!ReadPod(input, width)) {
    return Status::Corruption("binary table: truncated column width");
  }
  if (width == kPadMarker) {
    uint32_t pad = 0;
    if (!ReadPod(input, pad) || pad > kMaxPadBytes) {
      return Status::Corruption("binary table: bad padding run in column '" +
                                name + "'");
    }
    input.ignore(pad);
    if (static_cast<uint32_t>(input.gcount()) != pad ||
        !ReadPod(input, width)) {
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
  // The table header only pre-charges 10 bytes per v2 column, so num_rows
  // is still untrusted here. Reject sizes whose bit count would overflow
  // uint64 before calling NumDataWords -- a wrapped word count would pass
  // both the RemainingBytes check and FromWords' (same-formula) count
  // check, yielding a PackedCodes that decodes out of bounds.
  if (num_rows > PackedCodes::MaxSizeForWidth(width)) {
    return Status::Corruption(
        "binary table: column '" + name + "' claims " +
        std::to_string(num_rows) + " rows, too many for width " +
        std::to_string(width));
  }
  const uint64_t num_words = PackedCodes::NumDataWords(num_rows, width);
  // Against lying headers: check the stream can actually hold the payload
  // before allocating (when seekable), and read in bounded chunks.
  {
    const std::streamoff remaining = RemainingBytes(input);
    if (remaining >= 0 &&
        num_words > static_cast<uint64_t>(remaining) / sizeof(uint64_t)) {
      return Status::Corruption("binary table: truncated codes in column '" +
                                name + "'");
    }
  }
  constexpr uint64_t kChunkWords = 1 << 17;
  std::vector<uint64_t> words;
  // The extra slot takes the padding word FromWords appends, so a payload
  // read in one chunk is kept in its first allocation.
  words.reserve(std::min(num_words, kChunkWords) + 1);
  uint64_t remaining = num_words;
  while (remaining > 0) {
    const uint64_t chunk = std::min(remaining, kChunkWords);
    const size_t old_size = words.size();
    words.resize(old_size + chunk);
    const auto bytes = static_cast<std::streamsize>(chunk * sizeof(uint64_t));
    input.read(reinterpret_cast<char*>(words.data() + old_size), bytes);
    if (input.gcount() != bytes) {
      return Status::Corruption("binary table: truncated codes in column '" +
                                name + "'");
    }
    remaining -= chunk;
  }
  auto packed = PackedCodes::FromWords(num_rows, width, std::move(words));
  if (!packed.ok()) {
    return Status::Corruption("binary table: " + packed.status().message());
  }
  auto column = Column::FromPacked(std::move(name), support,
                                   std::move(packed).value(),
                                   std::move(labels));
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
// with Corruption instead of producing impossible estimates.
Result<std::shared_ptr<const CountMinSketch>> ReadSketchSidecar(
    std::istream& input, const std::string& name) {
  uint8_t has_sketch = 0;
  if (!ReadPod(input, has_sketch) || has_sketch > 1) {
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
  if (!ReadPod(input, depth) || !ReadPod(input, width) ||
      !ReadPod(input, seed) || !ReadPod(input, total_count)) {
    return Status::Corruption(
        "binary table: truncated sketch header in column '" + name + "'");
  }
  // Bound the shape before computing the counter count: FromParts would
  // reject these too, but only after we allocated for a lying header.
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
  {
    const std::streamoff remaining = RemainingBytes(input);
    if (remaining >= 0 &&
        num_counters >
            static_cast<uint64_t>(remaining) / sizeof(uint64_t)) {
      return Status::Corruption(
          "binary table: truncated sketch counters in column '" + name +
          "'");
    }
  }
  std::vector<uint64_t> counters;
  counters.reserve(std::min<uint64_t>(num_counters, 1 << 17));
  constexpr uint64_t kChunkWords = 1 << 17;
  uint64_t remaining = num_counters;
  while (remaining > 0) {
    const uint64_t chunk = std::min(remaining, kChunkWords);
    const size_t old_size = counters.size();
    counters.resize(old_size + chunk);
    const auto bytes =
        static_cast<std::streamsize>(chunk * sizeof(uint64_t));
    input.read(reinterpret_cast<char*>(counters.data() + old_size), bytes);
    if (input.gcount() != bytes) {
      return Status::Corruption(
          "binary table: truncated sketch counters in column '" + name +
          "'");
    }
    remaining -= chunk;
  }
  auto sketch = CountMinSketch::FromParts(depth, width, seed, total_count,
                                          std::move(counters));
  if (!sketch.ok()) {
    return Status::Corruption("binary table: column '" + name +
                              "' sketch: " + sketch.status().message());
  }
  return std::make_shared<const CountMinSketch>(std::move(sketch).value());
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
  const uint64_t alignment = std::max<uint64_t>(options.alignment, 8);
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
      // Pad so the packed words land `alignment`-aligned in the file
      // (offsets are relative to the stream start, which is the file
      // start on the save path). Unseekable sinks skip the run; the
      // format stays valid either way.
      const std::ostream::pos_type pos = output.tellp();
      if (pos != std::ostream::pos_type(-1)) {
        // Payload starts after the 1-byte marker, the u32 length, the
        // zeros, and the width byte.
        const uint64_t header_end = static_cast<uint64_t>(pos) + 6;
        const uint32_t pad = static_cast<uint32_t>(
            (alignment - header_end % alignment) % alignment);
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
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("binary table: cannot open '" + path + "'");
  }
  return WriteBinaryTable(table, file, options);
}

Result<Table> ReadBinaryTable(std::istream& input) {
  char magic[4];
  input.read(magic, sizeof(magic));
  if (input.gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("binary table: bad magic");
  }
  uint32_t version = 0;
  if (!ReadPod(input, version) ||
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
  if (!ReadPod(input, num_rows) || !ReadPod(input, num_columns)) {
    return Status::Corruption("binary table: truncated header");
  }
  // Lower-bound the bytes the header promises against what the stream can
  // actually deliver. Version 1 columns cost at least their 9-byte fixed
  // header plus num_rows 4-byte codes; version 2 columns cost at least a
  // 10-byte header (payload words are checked per column once the width is
  // known, since a width of 0 legitimately has no payload). A corrupt
  // header claiming billions of rows or columns fails here with Corruption
  // instead of entering the read loop at all.
  {
    const std::streamoff remaining = RemainingBytes(input);
    if (remaining >= 0) {
      const auto avail = static_cast<uint64_t>(remaining);
      constexpr uint64_t kColumnHeaderBytes =
          sizeof(uint32_t) + sizeof(uint32_t) + sizeof(uint8_t);
      uint64_t per_column = kColumnHeaderBytes;
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
  }
  constexpr uint32_t kMaxNameLen = 1 << 20;
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string name;
    uint32_t support = 0;
    uint8_t has_labels = 0;
    if (!ReadString(input, name, kMaxNameLen) || !ReadPod(input, support) ||
        !ReadPod(input, has_labels) || has_labels > 1) {
      return Status::Corruption("binary table: truncated column header");
    }
    // Corrupt headers can claim absurd sizes; never allocate up front for
    // more than the stream actually delivers -- grow with the data so a
    // lying header fails with Corruption instead of exhausting memory.
    std::vector<std::string> labels;
    if (has_labels != 0) {
      labels.reserve(std::min<uint64_t>(support, 1 << 16));
      for (uint32_t v = 0; v < support; ++v) {
        std::string label;
        if (!ReadString(input, label, kMaxNameLen)) {
          return Status::Corruption("binary table: truncated labels");
        }
        labels.push_back(std::move(label));
      }
    }
    auto column =
        version == kBinaryTableVersionV1
            ? ReadColumnV1(input, std::move(name), support, num_rows,
                           std::move(labels))
            : ReadColumnV2(input, std::move(name), support, num_rows,
                           std::move(labels));
    if (!column.ok()) return column.status();
    if (version == kBinaryTableVersionV3) {
      auto sketch = ReadSketchSidecar(input, column.value().name());
      if (!sketch.ok()) return sketch.status();
      if (sketch.value() != nullptr) {
        columns.push_back(
            column.value().WithSketch(std::move(sketch).value()));
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

Result<Table> ReadBinaryTableFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("binary table: cannot open '" + path + "'");
  }
  return ReadBinaryTable(file);
}

namespace {

// Bounds-checked reader over a mapped image. Mirrors the stream helpers;
// every accessor fails instead of reading past the mapping, so truncated
// or lying images surface as Corruption, never as a fault.
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

// Cursor twin of ReadSketchSidecar. Sketch counters are always copied to
// the heap: sketches are mutated on ingest and are small next to the
// packed payloads.
Result<std::shared_ptr<const CountMinSketch>> ReadSketchSidecarMapped(
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
  const uint64_t num_counters =
      static_cast<uint64_t>(depth) * static_cast<uint64_t>(width);
  if (num_counters > in.remaining() / sizeof(uint64_t)) {
    return Status::Corruption(
        "binary table: truncated sketch counters in column '" + name + "'");
  }
  std::vector<uint64_t> counters(num_counters);
  std::memcpy(counters.data(), in.here(), num_counters * sizeof(uint64_t));
  in.Skip(num_counters * sizeof(uint64_t));
  auto sketch = CountMinSketch::FromParts(depth, width, seed, total_count,
                                          std::move(counters));
  if (!sketch.ok()) {
    return Status::Corruption("binary table: column '" + name +
                              "' sketch: " + sketch.status().message());
  }
  return std::make_shared<const CountMinSketch>(std::move(sketch).value());
}

}  // namespace

Result<Table> ReadBinaryTableFileMapped(const std::string& path) {
  SWOPE_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                         MappedFile::Open(path));
  const std::shared_ptr<const MappedFile> mapped = std::move(file);
  Cursor in(mapped->data(), mapped->size());
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
  if (version == kBinaryTableVersionV1) {
    // v1 stores 4-byte codes that are re-packed on load; there is
    // nothing to borrow. The owned loader handles it.
    return ReadBinaryTableFile(path);
  }
  uint64_t num_rows = 0;
  uint32_t num_columns = 0;
  if (!in.ReadPod(num_rows) || !in.ReadPod(num_columns)) {
    return Status::Corruption("binary table: truncated header");
  }
  // Same lower-bound plausibility check as the stream reader: every v2/v3
  // column costs at least its fixed header plus the width byte (plus the
  // sketch flag in v3).
  {
    const uint64_t avail = in.remaining();
    uint64_t per_column = sizeof(uint32_t) + sizeof(uint32_t) +
                          sizeof(uint8_t) + sizeof(uint8_t);
    if (version == kBinaryTableVersionV3) per_column += sizeof(uint8_t);
    if (num_columns > 0 && per_column > avail / num_columns) {
      return Status::Corruption(
          "binary table: header claims more data than the stream holds");
    }
  }
  constexpr uint32_t kMaxNameLen = 1 << 20;
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
      labels.reserve(std::min<uint64_t>(support, 1 << 16));
      for (uint32_t v = 0; v < support; ++v) {
        std::string label;
        if (!in.ReadString(label, kMaxNameLen)) {
          return Status::Corruption("binary table: truncated labels");
        }
        labels.push_back(std::move(label));
      }
    }
    uint8_t width = 0;
    if (!in.ReadPod(width)) {
      return Status::Corruption("binary table: truncated column width");
    }
    if (width == kPadMarker) {
      uint32_t pad = 0;
      if (!in.ReadPod(pad) || pad > kMaxPadBytes) {
        return Status::Corruption(
            "binary table: bad padding run in column '" + name + "'");
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
    const std::string col_name = name;
    // Borrow when the payload is 8-byte aligned in the mapping and the
    // two-word decode reads stay inside it (the padded layout guarantees
    // both); otherwise copy to the heap -- the unpadded legacy layout.
    const bool aligned =
        (reinterpret_cast<uintptr_t>(payload) % alignof(uint64_t)) == 0;
    const bool guarded = payload_pos + payload_bytes + kTrailingGuardBytes <=
                         mapped->ReadableBytes();
    Result<Column> column = [&]() -> Result<Column> {
      if (payload_bytes > 0 && aligned && guarded) {
        auto borrowed = PackedCodes::BorrowWords(
            num_rows, width, reinterpret_cast<const uint64_t*>(payload));
        if (!borrowed.ok()) return borrowed.status();
        return Column::FromPackedBacked(std::move(name), support,
                                        std::move(borrowed).value(),
                                        std::move(labels), mapped);
      }
      std::vector<uint64_t> words;
      words.reserve(num_words + 1);  // + FromWords' padding word
      words.resize(num_words);
      if (num_words > 0) std::memcpy(words.data(), payload, payload_bytes);
      auto packed = PackedCodes::FromWords(num_rows, width, std::move(words));
      if (!packed.ok()) return packed.status();
      return Column::FromPacked(std::move(name), support,
                                std::move(packed).value(),
                                std::move(labels));
    }();
    if (!column.ok()) {
      return Status::Corruption("binary table: " +
                                column.status().message());
    }
    if (version == kBinaryTableVersionV3) {
      auto sketch = ReadSketchSidecarMapped(in, col_name);
      if (!sketch.ok()) return sketch.status();
      if (sketch.value() != nullptr) {
        columns.push_back(
            column.value().WithSketch(std::move(sketch).value()));
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

}  // namespace swope
