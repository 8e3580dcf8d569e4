// MappedFile: a read-only, page-aligned view of a whole file, the
// OS-paged backing store for mmap-loaded SWPB tables (docs/STORAGE.md).
//
// Open() mmaps the file PROT_READ/MAP_PRIVATE and owns the mapping for
// the object's lifetime; columns borrow word spans out of the region
// (src/table/packed_codes.h borrowed mode) and keep the file alive
// through a shared_ptr, so "eviction" of a mapped dataset is simply the
// last reference dropping and the region being munmapped. Pages are
// faulted in on demand and reclaimed by the OS under pressure, which is
// what lets the registry host datasets larger than its heap budget.
//
// The mapping covers size() file bytes; the kernel additionally
// zero-fills the tail of the final page, so ReadableBytes() -- size()
// rounded up to the page size -- bytes are dereferenceable. The
// borrowed-words loader leans on that slack for the decode kernels'
// unconditional two-word reads (see kTrailingGuardBytes in binary_io.cc).

#ifndef SWOPE_FS_MAPPED_FILE_H_
#define SWOPE_FS_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/result.h"

namespace swope {

/// An immutable, shareable mmap of one file. Thread-safe after Open:
/// all accessors are const reads of fixed state.
class MappedFile {
 private:
  /// Passkey: only Open() can mint one, so the public constructor below
  /// (which std::make_shared needs) is unreachable from outside.
  struct Token {
    explicit Token() = default;
  };

 public:
  /// Maps `path` read-only. An empty file maps successfully with
  /// data() == nullptr and size() == 0. Holders that only read share it
  /// as shared_ptr<const MappedFile>.
  static Result<std::shared_ptr<MappedFile>> Open(const std::string& path);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Base of the mapping (page-aligned), or nullptr for an empty file.
  const uint8_t* data() const { return data_; }
  /// Exact file size in bytes at Open time.
  size_t size() const { return size_; }
  /// Dereferenceable bytes: size() rounded up to the page size (the
  /// kernel zero-fills the final partial page).
  size_t ReadableBytes() const { return readable_; }
  /// The path the mapping was opened from (diagnostics).
  const std::string& path() const { return path_; }

  /// Unmaps early. Idempotent; accessors return nullptr/0 afterwards.
  /// Only safe when nothing borrows from the region anymore -- the
  /// table loader never calls this, it exists for tests and tools.
  void Close();

  /// The system page size (cached).
  static size_t PageSize();

  MappedFile(Token, std::string path, const uint8_t* data, size_t size,
             size_t readable)
      : path_(std::move(path)), data_(data), size_(size),
        readable_(readable) {}

 private:
  std::string path_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t readable_ = 0;
};

}  // namespace swope

#endif  // SWOPE_FS_MAPPED_FILE_H_
