// Arena: a bump-pointer allocator with checkpoint/rewind, the backing
// store for per-query memory (src/core/query_memory.h).
//
// Allocation is a pointer increment into geometrically growing blocks;
// deallocation is a no-op. Rewind() moves the bump pointer back to a
// checkpoint (or the start) while *keeping every block*, so an arena
// that has served one query re-serves the next identically shaped query
// without touching the heap at all -- the steady-state zero-allocation
// contract the engine's interposer test pins (tests/
// alloc_regression_test.cc). This is the classic linear-arena idiom:
// allocation cost of a stack, lifetime management of a region.
//
// The arena doubles as a std::pmr::memory_resource, so standard
// containers participate directly:
//
//   Arena arena;
//   std::pmr::vector<uint64_t> counts(&arena);   // grows into the arena
//   arena.Rewind();                              // all of it reclaimed
//
// Containers backed by an arena MUST NOT outlive the rewind that
// reclaims their storage; the engine enforces this by tying rewinds to
// the QueryMemory pool lease (the response holds the lease, the pool
// rewinds only after the response is destroyed or released).
//
// Thread safety: Allocate is mutex-guarded so concurrent candidate
// updates may grow arena-backed containers; the lock is uncontended in the
// steady state because warm containers allocate nothing. Rewind and the
// byte accessors must not race Allocate (the pool calls them only
// between queries).

#ifndef SWOPE_COMMON_ARENA_H_
#define SWOPE_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace swope {

/// Bump-pointer arena over geometrically growing heap blocks. See the
/// file comment for the lifetime contract.
class Arena : public std::pmr::memory_resource {
 public:
  /// First block size; later blocks double until kMaxBlockBytes.
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;
  static constexpr size_t kMaxBlockBytes = 16 * 1024 * 1024;

  explicit Arena(size_t first_block_bytes = kDefaultBlockBytes)
      : first_block_bytes_(first_block_bytes == 0 ? kDefaultBlockBytes
                                                  : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `alignment` (a power of two).
  /// Never returns nullptr: exhausting the current block chains a new
  /// one (the only path that touches the heap).
  void* Allocate(size_t bytes, size_t alignment) REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    return AllocateLocked(bytes, alignment);
  }

  /// A position in the allocation stream. Valid until a Rewind to an
  /// earlier position.
  struct Checkpoint {
    size_t block = 0;
    size_t used = 0;
  };

  Checkpoint Mark() const REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    return {current_, blocks_.empty() ? 0 : blocks_[current_].used};
  }

  /// Releases everything allocated after `mark`, keeping all blocks for
  /// reuse. Every pointer handed out after the mark becomes dangling.
  void Rewind(const Checkpoint& mark) REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    if (blocks_.empty()) return;
    for (size_t b = mark.block + 1; b < blocks_.size(); ++b) {
      blocks_[b].used = 0;
    }
    blocks_[mark.block].used = mark.used;
    current_ = mark.block;
  }

  /// Releases every allocation, keeping all blocks for reuse.
  void Rewind() REQUIRES(!mutex_) { Rewind(Checkpoint{0, 0}); }

  /// Heap bytes reserved across all blocks (capacity, not live bytes);
  /// what the swope_query_arena_bytes gauge reports.
  size_t BytesReserved() const REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    size_t total = 0;
    for (const Block& block : blocks_) total += block.capacity;
    return total;
  }

  /// Bytes currently allocated (since the last full rewind).
  size_t BytesUsed() const REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    size_t total = 0;
    for (size_t b = 0; b <= current_ && b < blocks_.size(); ++b) {
      total += blocks_[b].used;
    }
    return total;
  }

  /// The arena as a polymorphic memory resource (it is one; this spells
  /// the intent at call sites).
  std::pmr::memory_resource* resource() { return this; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  void* AllocateLocked(size_t bytes, size_t alignment) REQUIRES(mutex_) {
    if (alignment == 0) alignment = 1;
    // Try the current block, then any already-reserved successor (a
    // rewound arena re-walks its block chain without heap traffic).
    while (current_ < blocks_.size()) {
      Block& block = blocks_[current_];
      // Align the absolute address, not the offset: block bases only
      // guarantee operator-new alignment.
      const uintptr_t base = reinterpret_cast<uintptr_t>(block.data.get());
      const size_t aligned =
          ((base + block.used + (alignment - 1)) & ~(alignment - 1)) - base;
      if (aligned + bytes <= block.capacity) {
        block.used = aligned + bytes;
        return block.data.get() + aligned;
      }
      if (current_ + 1 >= blocks_.size()) break;
      ++current_;
      blocks_[current_].used = 0;
    }
    // Chain a new block: doubling, bounded, and always large enough for
    // this request plus its worst-case alignment slack.
    size_t capacity = blocks_.empty()
                          ? first_block_bytes_
                          : std::min(blocks_.back().capacity * 2,
                                     kMaxBlockBytes);
    if (capacity < bytes + alignment) capacity = bytes + alignment;
    Block block;
    block.data = std::make_unique<std::byte[]>(capacity);
    block.capacity = capacity;
    blocks_.push_back(std::move(block));
    current_ = blocks_.size() - 1;
    Block& fresh = blocks_[current_];
    const uintptr_t base = reinterpret_cast<uintptr_t>(fresh.data.get());
    const size_t aligned =
        ((base + (alignment - 1)) & ~(alignment - 1)) - base;
    fresh.used = aligned + bytes;
    return fresh.data.get() + aligned;
  }

  void* do_allocate(size_t bytes, size_t alignment) override
      REQUIRES(!mutex_) {
    return Allocate(bytes, alignment);
  }
  void do_deallocate(void*, size_t, size_t) override {
    // Bump allocator: individual frees are no-ops; Rewind reclaims.
  }
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  const size_t first_block_bytes_;
  mutable Mutex mutex_;
  std::vector<Block> blocks_ GUARDED_BY(mutex_);
  size_t current_ GUARDED_BY(mutex_) = 0;
};

}  // namespace swope

#endif  // SWOPE_COMMON_ARENA_H_
