// PermutationCache: one shuffled row order, and the entropy prefix counts
// taken over it, shared by every query on a table version.
//
// Drawing a permutation of N rows is O(N) time and 4N bytes -- for a
// resident table under heavy traffic that can rival the sampling cost
// itself. By the paper's Section 6.1 observation a single exchangeable
// order is sound for every query over the same table, and because each
// query's order is the deterministic function ShuffledRowOrder(N, seed),
// sharing it changes nothing about any individual answer. Each entry is a
// SharedPrefix (src/core/shared_prefix.h): the order plus, per sample
// schedule, the entropy counts queries have taken over its prefixes, so
// each (column, row) is counted at most once per (version, order,
// schedule). Entries are keyed by (table fingerprint, seed, sequential
// flag) and handed out as shared_ptr so eviction never invalidates a
// running query. The engine erases a fingerprint's entries, counts
// included, when its dataset is replaced or removed.

#ifndef SWOPE_ENGINE_PERMUTATION_CACHE_H_
#define SWOPE_ENGINE_PERMUTATION_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/shared_prefix.h"

namespace swope {

class Counter;
class Gauge;
class MetricsRegistry;

/// Thread-safe LRU cache of shared prefixes. The expensive shuffle runs
/// outside the lock; a racing miss on the same key builds the identical
/// (deterministic) order and the first insertion wins.
class PermutationCache {
 public:
  /// Keeps at most `capacity` entries; 0 disables sharing (every call
  /// builds a fresh order with empty counts).
  explicit PermutationCache(size_t capacity) : capacity_(capacity) {}

  PermutationCache(const PermutationCache&) = delete;
  PermutationCache& operator=(const PermutationCache&) = delete;

  /// Returns the shared prefix for (fingerprint, seed, sequential) over
  /// `num_rows` rows, building and caching it on first use. `sequential`
  /// uses the identity order (the paper's sequential sampling); the seed
  /// is then irrelevant and ignored in the key.
  std::shared_ptr<SharedPrefix> GetOrCreate(uint64_t fingerprint,
                                            uint32_t num_rows, uint64_t seed,
                                            bool sequential) REQUIRES(!mutex_);

  /// Drops every entry cached for `fingerprint`, the contents of a
  /// dataset that was replaced or removed. Queries already holding one
  /// keep it through their shared_ptr.
  void Erase(uint64_t fingerprint) REQUIRES(!mutex_);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    /// Entropy cells queries counted into the prefixes this cache handed
    /// out, and cells they read from them instead (0 until BindMetrics).
    uint64_t prefix_cells_counted = 0;
    uint64_t prefix_cells_reused = 0;
  };
  Stats GetStats() const REQUIRES(!mutex_);

  /// Mirrors hit/miss/eviction counts and the entry count into `metrics`
  /// under the label {cache="permutation"}, and has every prefix built
  /// afterwards tally its cells into swope_prefix_cells_total
  /// {source="counted"|"reused"}. Call once, before concurrent use; the
  /// registry must outlive the cache and every prefix it hands out.
  void BindMetrics(MetricsRegistry* metrics) REQUIRES(!mutex_);

 private:
  struct Key {
    uint64_t fingerprint;
    uint64_t seed;
    bool sequential;
    bool operator<(const Key& other) const {
      if (fingerprint != other.fingerprint) {
        return fingerprint < other.fingerprint;
      }
      if (seed != other.seed) return seed < other.seed;
      return sequential < other.sequential;
    }
  };
  struct Entry {
    std::shared_ptr<SharedPrefix> prefix;
    uint64_t last_used = 0;
  };

  void EvictToCapacity() REQUIRES(mutex_);

  const size_t capacity_;
  mutable Mutex mutex_;
  std::map<Key, Entry> entries_ GUARDED_BY(mutex_);
  uint64_t tick_ GUARDED_BY(mutex_) = 0;
  uint64_t hits_ GUARDED_BY(mutex_) = 0;
  uint64_t misses_ GUARDED_BY(mutex_) = 0;
  uint64_t evictions_ GUARDED_BY(mutex_) = 0;

  /// Optional metric mirrors (null when unbound). Updated under mutex_,
  /// alongside the local counters they shadow.
  Counter* hits_metric_ GUARDED_BY(mutex_) = nullptr;
  Counter* misses_metric_ GUARDED_BY(mutex_) = nullptr;
  Counter* evictions_metric_ GUARDED_BY(mutex_) = nullptr;
  Gauge* entries_metric_ GUARDED_BY(mutex_) = nullptr;
  /// Handed to every SharedPrefix built after BindMetrics.
  Counter* counted_cells_ GUARDED_BY(mutex_) = nullptr;
  Counter* reused_cells_ GUARDED_BY(mutex_) = nullptr;
};

}  // namespace swope

#endif  // SWOPE_ENGINE_PERMUTATION_CACHE_H_
