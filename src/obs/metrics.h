// MetricsRegistry: process-level counters, gauges, and latency histograms
// with Prometheus-style text exposition and a JSON snapshot.
//
// Design goals, in order:
//   1. Hot-path updates are lock-free. Counter shards its cells across
//      cache lines (threads hash to a shard, sums on read), Gauge and
//      Histogram are plain atomics, and no update ever takes the registry
//      mutex -- that mutex only guards registration and rendering.
//   2. Metric handles are stable raw pointers. GetCounter/GetGauge/
//      GetHistogram return the same pointer for the same (name, labels)
//      for the registry's lifetime, so call sites resolve their handles
//      once (at construction) and update through a pointer afterwards.
//   3. Exposition is deterministic: families and label sets render in
//      sorted order, so snapshots diff cleanly across runs.
//
// Naming follows the Prometheus conventions documented in
// docs/OBSERVABILITY.md: snake_case families prefixed `swope_`, counters
// suffixed `_total`, and unit suffixes spelled out (`_ms`, `_bytes`).
//
// The registry is instantiable (the engine owns one per instance, which
// keeps tests hermetic); nothing in this header is a singleton.

#ifndef SWOPE_OBS_METRICS_H_
#define SWOPE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace swope {

/// Label set attached to one metric instance, e.g. {{"kind", "mi-topk"}}.
/// Keys are sorted at registration so label order never splits a metric.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing counter, sharded across cache lines so that
/// concurrent writers (pool workers, engine threads) never contend on one
/// atomic. Reads sum the shards; they are monotone but not a linearizable
/// snapshot, which is all monitoring needs.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  Counter() = default;

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Each thread picks one shard for its whole lifetime (round-robin over
  /// thread creation order), shared by every Counter in the process.
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

/// An instantaneous signed value (queue depth, in-flight queries,
/// resident bytes). A single atomic: gauges are written rarely enough
/// that sharding would only blur the reported value.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  Gauge() = default;

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket histogram (Prometheus semantics: per-bucket counts are
/// cumulative in exposition, `le` is an inclusive upper bound, and the
/// final +Inf bucket catches everything). Bucket bounds are fixed at
/// registration, so Observe is two relaxed fetch_adds plus a CAS loop for
/// the sum -- no locks, no allocation.
class Histogram {
 public:
  void Observe(double value);

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  struct Snapshot {
    /// Finite upper bounds; the implicit +Inf bucket is appended by the
    /// renderers. cumulative[i] counts observations <= bounds[i];
    /// cumulative.back() == count.
    std::vector<double> bounds;
    std::vector<uint64_t> cumulative;
    uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot GetSnapshot() const;

  /// `bounds` must be strictly ascending and non-empty.
  explicit Histogram(std::vector<double> bounds);

 private:
  const std::vector<double> bounds_;
  /// bounds_.size() + 1 cells; the last is the +Inf bucket. Non-cumulative
  /// internally (one fetch_add per Observe); renderers accumulate.
  const std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default wall-time buckets in milliseconds: 50us to 10s, roughly
/// geometric, chosen to resolve both cache hits (~us) and heavy MI
/// queries (~s).
const std::vector<double>& DefaultLatencyBucketsMs();

/// The metric store. Registration and rendering take a mutex; updates on
/// the returned handles never do. Get* calls are idempotent: the same
/// (name, labels) returns the same handle, so any component may resolve a
/// metric without coordinating ownership. Re-registering a name with a
/// different metric type aborts (it is a programming error, and silently
/// returning null would push the check onto every hot path).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, MetricLabels labels = {})
      REQUIRES(!mutex_);
  Gauge* GetGauge(const std::string& name, MetricLabels labels = {})
      REQUIRES(!mutex_);
  /// `bounds`: strictly ascending finite bucket upper bounds. Bounds are
  /// fixed by the first registration of (name, labels).
  Histogram* GetHistogram(const std::string& name, MetricLabels labels,
                          std::vector<double> bounds) REQUIRES(!mutex_);

  /// Prometheus text exposition format, families sorted by name:
  ///   # TYPE swope_engine_queries_ok_total counter
  ///   swope_engine_queries_ok_total 17
  ///   swope_pool_task_wait_ms_bucket{pool="executor",le="0.25"} 40
  ///   ...
  std::string RenderPrometheusText() const REQUIRES(!mutex_);

  /// One JSON object keyed by metric identity (same sort order):
  ///   {"counters":{"swope_engine_queries_ok_total":17,...},
  ///    "gauges":{...},
  ///    "histograms":{"name{label=\"v\"}":{"count":9,"sum":12.5,
  ///       "buckets":[{"le":"0.25","count":4},...,{"le":"+Inf","count":9}]}}
  std::string RenderJson() const REQUIRES(!mutex_);

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Entry {
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  /// (family name, rendered label string) -> metric. The rendered label
  /// string ("{k=\"v\",...}" or "") is canonical because labels are
  /// sorted first.
  using Key = std::pair<std::string, std::string>;

  Entry& GetOrCreate(const std::string& name, MetricLabels labels,
                     Type type) REQUIRES(!mutex_);

  mutable Mutex mutex_;
  std::map<Key, Entry> entries_ GUARDED_BY(mutex_);
};

}  // namespace swope

#endif  // SWOPE_OBS_METRICS_H_
