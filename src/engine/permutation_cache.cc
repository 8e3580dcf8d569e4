#include "src/engine/permutation_cache.h"

#include <utility>

#include "src/obs/metrics.h"
#include "src/table/shuffle.h"

namespace swope {

void PermutationCache::BindMetrics(MetricsRegistry* metrics) {
  const MetricLabels labels = {{"cache", "permutation"}};
  MutexLock lock(mutex_);
  hits_metric_ = metrics->GetCounter("swope_cache_hits_total", labels);
  misses_metric_ = metrics->GetCounter("swope_cache_misses_total", labels);
  evictions_metric_ =
      metrics->GetCounter("swope_cache_evictions_total", labels);
  entries_metric_ = metrics->GetGauge("swope_cache_entries", labels);
  counted_cells_ =
      metrics->GetCounter("swope_prefix_cells_total", {{"source", "counted"}});
  reused_cells_ =
      metrics->GetCounter("swope_prefix_cells_total", {{"source", "reused"}});
}

std::shared_ptr<SharedPrefix> PermutationCache::GetOrCreate(
    uint64_t fingerprint, uint32_t num_rows, uint64_t seed, bool sequential) {
  const Key key{fingerprint, sequential ? 0 : seed, sequential};
  Counter* counted_cells;
  Counter* reused_cells;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end() &&
        it->second.prefix->order().size() == num_rows) {
      ++hits_;
      if (hits_metric_ != nullptr) hits_metric_->Increment();
      it->second.last_used = ++tick_;
      return it->second.prefix;
    }
    counted_cells = counted_cells_;
    reused_cells = reused_cells_;
  }

  // Build outside the lock; the order is deterministic, so concurrent
  // builders for one key produce identical orders and any may win.
  std::vector<uint32_t> order;
  if (sequential) {
    order.resize(num_rows);
    for (uint32_t i = 0; i < num_rows; ++i) order[i] = i;
  } else {
    order = ShuffledRowOrder(num_rows, seed);
  }
  auto shared = std::make_shared<SharedPrefix>(std::move(order),
                                               counted_cells, reused_cells);

  MutexLock lock(mutex_);
  ++misses_;
  if (misses_metric_ != nullptr) misses_metric_->Increment();
  if (capacity_ == 0) return shared;
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.prefix->order().size() == num_rows) {
    // Raced with another builder; reuse the incumbent so concurrent
    // queries converge on one order and one set of counts.
    it->second.last_used = ++tick_;
    return it->second.prefix;
  }
  Entry& entry = entries_[key];
  entry.prefix = shared;
  entry.last_used = ++tick_;
  EvictToCapacity();
  if (entries_metric_ != nullptr) {
    entries_metric_->Set(static_cast<int64_t>(entries_.size()));
  }
  return shared;
}

void PermutationCache::Erase(uint64_t fingerprint) {
  MutexLock lock(mutex_);
  auto it = entries_.lower_bound(Key{fingerprint, 0, false});
  while (it != entries_.end() && it->first.fingerprint == fingerprint) {
    it = entries_.erase(it);
  }
  if (entries_metric_ != nullptr) {
    entries_metric_->Set(static_cast<int64_t>(entries_.size()));
  }
}

PermutationCache::Stats PermutationCache::GetStats() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  if (counted_cells_ != nullptr) {
    stats.prefix_cells_counted = counted_cells_->Value();
    stats.prefix_cells_reused = reused_cells_->Value();
  }
  return stats;
}

void PermutationCache::EvictToCapacity() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    entries_.erase(victim);
    ++evictions_;
    if (evictions_metric_ != nullptr) evictions_metric_->Increment();
  }
}

}  // namespace swope
