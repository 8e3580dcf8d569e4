// QueryMemory: the pooled per-query allocation state behind the
// engine's zero-allocation serving path.
//
// One QueryMemory bundles the two recycled stores a query needs:
//
//   arena()    the bump-pointer Arena every per-query container
//              (counters, intervals, active sets, result items)
//              allocates from via QueryOptions::memory,
//   scratch()  the CodeScratchArena of decode buffers scorers borrow
//              via QueryOptions::scratch.
//
// QueryMemoryPool hands these out as move-only leases. The engine
// attaches the lease to the QueryResponse it returns, so arena-backed
// response items stay valid exactly as long as the response exists;
// when the last owner drops the lease, the arena is rewound (blocks
// kept) and the QueryMemory goes back to the pool. After a warmup
// query has sized the arena blocks and decode buffers, a same-shaped
// query runs without touching the heap (tests/alloc_regression_test.cc
// pins this with an interposed counting allocator).
//
// Thread safety: the pool is internally synchronized; one lease must be
// used by one query at a time (the query's own candidate updates may
// allocate concurrently -- Arena::Allocate is locked).

#ifndef SWOPE_CORE_QUERY_MEMORY_H_
#define SWOPE_CORE_QUERY_MEMORY_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/code_scratch.h"

namespace swope {

/// One query's recycled allocation state. Obtain via
/// QueryMemoryPool::Acquire; wire into QueryOptions::memory / ::scratch.
class QueryMemory {
 public:
  QueryMemory() = default;
  QueryMemory(const QueryMemory&) = delete;
  QueryMemory& operator=(const QueryMemory&) = delete;

  Arena& arena() { return arena_; }
  CodeScratchArena& scratch() { return scratch_; }

  /// Drops every per-query allocation while keeping the arena's blocks
  /// and the scratch buffers for the next query. Called by the pool on
  /// release; callers must ensure no arena-backed container survives.
  void Reset() { arena_.Rewind(); }

 private:
  Arena arena_;
  CodeScratchArena scratch_;
};

class QueryMemoryPool;

/// Move-only handle to a pooled QueryMemory. Destroying (or moving-from
/// and destroying) the lease resets the memory and returns it to the
/// pool. The pool is kept alive by shared ownership, so a lease may
/// safely outlive the engine that created it (e.g. a caller holding a
/// QueryResponse after engine shutdown).
class QueryMemoryLease {
 public:
  QueryMemoryLease() = default;
  QueryMemoryLease(std::shared_ptr<QueryMemoryPool> pool,
                   std::unique_ptr<QueryMemory> memory)
      : pool_(std::move(pool)), memory_(std::move(memory)) {}

  QueryMemoryLease(QueryMemoryLease&&) noexcept = default;
  QueryMemoryLease& operator=(QueryMemoryLease&& other) noexcept {
    if (this != &other) {
      ReturnToPool();
      pool_ = std::move(other.pool_);
      memory_ = std::move(other.memory_);
    }
    return *this;
  }
  QueryMemoryLease(const QueryMemoryLease&) = delete;
  QueryMemoryLease& operator=(const QueryMemoryLease&) = delete;

  ~QueryMemoryLease() { ReturnToPool(); }

  QueryMemory* get() const { return memory_.get(); }
  QueryMemory* operator->() const { return memory_.get(); }
  explicit operator bool() const { return memory_ != nullptr; }

 private:
  void ReturnToPool();

  std::shared_ptr<QueryMemoryPool> pool_;
  std::unique_ptr<QueryMemory> memory_;
};

/// Bounded free-list of QueryMemory objects. Create via
/// std::make_shared so leases can co-own the pool.
class QueryMemoryPool {
 public:
  /// Keeps at most `max_idle` memories warm; surplus releases free their
  /// heap instead of growing the pool without bound.
  explicit QueryMemoryPool(size_t max_idle = 8) : max_idle_(max_idle) {}

  QueryMemoryPool(const QueryMemoryPool&) = delete;
  QueryMemoryPool& operator=(const QueryMemoryPool&) = delete;

  /// Hands out a warm QueryMemory when one is idle, else a fresh one.
  /// `self` must be the shared_ptr owning this pool.
  static QueryMemoryLease Acquire(
      const std::shared_ptr<QueryMemoryPool>& self) {
    std::unique_ptr<QueryMemory> memory;
    {
      MutexLock lock(self->mutex_);
      if (!self->idle_.empty()) {
        memory = std::move(self->idle_.back());
        self->idle_.pop_back();
      }
    }
    if (memory == nullptr) memory = std::make_unique<QueryMemory>();
    return QueryMemoryLease(self, std::move(memory));
  }

  /// Arena bytes reserved across the idle memories (leased-out memories
  /// report through their query's response instead).
  size_t IdleArenaBytes() const REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    size_t total = 0;
    for (const auto& memory : idle_) total += memory->arena().BytesReserved();
    return total;
  }

  size_t IdleCount() const REQUIRES(!mutex_) {
    MutexLock lock(mutex_);
    return idle_.size();
  }

 private:
  friend class QueryMemoryLease;

  void Release(std::unique_ptr<QueryMemory> memory) REQUIRES(!mutex_) {
    memory->Reset();
    MutexLock lock(mutex_);
    if (idle_.size() < max_idle_) idle_.push_back(std::move(memory));
    // else: drop on the floor; the unique_ptr frees the arena blocks.
  }

  const size_t max_idle_;
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<QueryMemory>> idle_ GUARDED_BY(mutex_);
};

inline void QueryMemoryLease::ReturnToPool() {
  if (memory_ != nullptr && pool_ != nullptr) {
    pool_->Release(std::move(memory_));
  }
  memory_.reset();
  pool_.reset();
}

}  // namespace swope

#endif  // SWOPE_CORE_QUERY_MEMORY_H_
