// QueryEngine: the long-lived serving layer over the SWOPE library.
//
// One engine owns a DatasetRegistry of resident tables, a ResultCache of
// certified answers, a PermutationCache of shared row orders and the
// entropy prefix counts taken over them, and a ThreadPool executor.
// QueryEngine::Run is the single dispatcher for all six query kinds;
// Submit runs the same path asynchronously on the pool.
//
// Run's pipeline:
//   1. resolve the spec against the named dataset (canonicalization),
//   2. serve from ResultCache when a prior run certified the same
//      (fingerprint, canonical spec) -- zero rows sampled,
//   3. otherwise admit the query (bounded in-flight concurrency; waiting
//      respects the query's deadline), attach the shared prefix (the
//      permutation and its entropy counts) and an ExecControl
//      (cancellation + deadline, polled by the driver at every
//      sample-doubling round), execute, and cache the answer.
//
// Thread safety: every public method is safe to call concurrently.

#ifndef SWOPE_ENGINE_QUERY_ENGINE_H_
#define SWOPE_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/core/exec_control.h"
#include "src/core/query_memory.h"
#include "src/engine/dataset_registry.h"
#include "src/engine/permutation_cache.h"
#include "src/engine/query_spec.h"
#include "src/engine/result_cache.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/query_trace.h"

namespace swope {

/// Engine sizing knobs.
struct EngineConfig {
  /// Executor threads for Submit(); >= 1.
  size_t num_threads = 4;
  /// Worker threads for the intra-query candidate updates
  /// (QueryOptions::pool), shared by every concurrently executing query;
  /// 1 = serial. Answers are byte-identical either way (docs/CORE.md), so
  /// this is purely a latency knob.
  size_t intra_query_threads = 1;
  /// Scheduling mode for both pools (executor + intra-query). Never
  /// affects answers; kSingleQueue is the throughput A/B baseline.
  PoolMode pool_mode = PoolMode::kWorkStealing;
  /// Admission control: queries executing concurrently (not counting
  /// cache hits, which bypass admission). Further Run calls wait; >= 1.
  size_t max_in_flight = 8;
  /// Load shedding: when > 0, a query that finds this many queries
  /// already waiting in admission is rejected immediately with
  /// Unavailable (counted in swope_engine_rejected_total) instead of
  /// queueing behind them. 0 = wait without bound.
  size_t max_admission_waiters = 0;
  /// DatasetRegistry byte budget; 0 = unlimited.
  uint64_t memory_budget_bytes = 0;
  /// ResultCache entries; 0 disables result caching.
  size_t result_cache_capacity = 256;
  /// PermutationCache entries; 0 disables permutation sharing.
  size_t permutation_cache_capacity = 16;
  /// Applied to specs with timeout_ms == 0; 0 = no default deadline.
  uint64_t default_timeout_ms = 0;
  /// Slow-query capture: an executed query whose wall time reaches this
  /// threshold records a slow-query event whose detail carries the
  /// query's stage profile (and round summary when traced), even when the
  /// client did not ask for profile=1. 0 disables capture.
  double slow_query_ms = 0.0;
  /// EventLog ring capacity (rounded up to a power of two, minimum 8).
  size_t event_log_capacity = EventLog::kDefaultCapacity;
  /// QueryMemory objects kept warm between queries (arena blocks plus
  /// decode buffers). Steady-state serving reuses these instead of
  /// allocating; sized to the expected executed-query concurrency.
  size_t query_memory_pool_size = 8;
};

/// Answer to one engine query. Move-only: executed queries carry the
/// arena lease their items live in.
struct QueryResponse {
  /// Declared first so it is destroyed last: `items` may be backed by
  /// this lease's arena, and dropping the lease rewinds it. Empty for
  /// cache hits (their items live on the default heap resource).
  QueryMemoryLease memory;
  /// Kind echo plus the canonical identity of the executed query.
  QueryKind kind = QueryKind::kEntropyTopK;
  uint64_t fingerprint = 0;
  std::string canonical_key;
  /// True when served from ResultCache without sampling.
  bool cache_hit = false;
  /// Executed queries: allocated from `memory`'s arena (valid while this
  /// response lives; copy before stashing long-term). Cache hits: a heap
  /// copy of the cached answer.
  std::pmr::vector<AttributeScore> items;
  QueryStats stats;
  /// Round-by-round trace, present when QuerySpec::trace was set and the
  /// query actually executed (cache hits run zero rounds and carry none).
  std::shared_ptr<const QueryTrace> trace;
  /// Per-stage time breakdown, present when QuerySpec::profile was set
  /// and the query actually executed (cache hits run zero stages and
  /// carry none). WallMs() is set to the executed query's wall time.
  std::shared_ptr<const StageProfiler> profile;
};

/// Monotonic counters, snapshot via QueryEngine::GetCounters.
struct EngineCounters {
  uint64_t queries_started = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t permutation_cache_hits = 0;
  uint64_t permutation_cache_misses = 0;
  /// Rows actually sampled by executed (non-cache-hit) queries.
  uint64_t rows_sampled = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t registry_evictions = 0;
  /// Queries that found every execution slot busy and had to wait in
  /// admission control (counted once per wait, not per poll).
  uint64_t admission_waits = 0;
  /// Queries shed at admission (queue full; EngineConfig::
  /// max_admission_waiters) -- distinct from cancellations and deadline
  /// misses, which count queries the engine accepted.
  uint64_t rejected = 0;
  /// Successful steals across both pools' work-stealing deques.
  uint64_t pool_steals = 0;
  /// Successful queries split by estimation path: sketch when at least
  /// one candidate was scored through a count-min sketch
  /// (QueryStats::sketch_candidates > 0), exact otherwise. Cache hits
  /// count under the path the cached execution took.
  uint64_t queries_sketch = 0;
  uint64_t queries_exact = 0;
  /// Rows appended through Ingest.
  uint64_t ingest_rows = 0;
  /// Entropy cells executed queries counted into the shared prefix state
  /// (src/core/shared_prefix.h), and cells they read from it instead.
  /// Their sum is the summed cells_scanned of those queries' exact-path
  /// columns; sketched columns and MI/NMI queries add to neither.
  uint64_t prefix_cells_counted = 0;
  uint64_t prefix_cells_reused = 0;
  /// Worker utilization per pool, aggregated over the pool's workers from
  /// ThreadPool::GetWorkerStats: busy fraction = run / (run + idle), in
  /// [0, 1]; 0 before any task ran. intra_* are 0 when the engine has no
  /// intra-query pool (intra_query_threads <= 1).
  double executor_run_ms = 0.0;
  double executor_idle_ms = 0.0;
  double executor_utilization = 0.0;
  double intra_run_ms = 0.0;
  double intra_idle_ms = 0.0;
  double intra_utilization = 0.0;
  /// Events ever appended to the engine's EventLog (monotone; exceeds
  /// the ring capacity once it has wrapped).
  uint64_t events_logged = 0;
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineConfig config = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Registers `table` under `name` (replacing any previous dataset of
  /// that name; in-flight queries keep their handle). The table is moved
  /// into the registry, never copied.
  Status RegisterDataset(const std::string& name, Table table)
      REQUIRES(!writer_mutex_);

  /// Loads a table from `path` (*.csv is CSV, anything else SWPB binary),
  /// optionally dropping columns with support > max_support (the paper's
  /// preprocessing; 0 keeps everything), and registers it. When
  /// `sketch_epsilon` > 0, columns with support > `sketch_threshold` get
  /// count-min sidecars attached on load (table/sketch_sidecar.h), so
  /// high-cardinality columns are servable via the sketch path without a
  /// per-query build. With `mmap` set, SWPB files load through the
  /// mapped path (binary_io.h): page-aligned payloads are borrowed from
  /// the mapping and stay OS-paged instead of heap-resident -- they do
  /// not count against the registry's memory budget. A later Ingest
  /// copies the appended columns onto the heap. Dropping columns and
  /// registering move the table, so a heap load without sketches
  /// allocates its payload once.
  Status RegisterDatasetFile(const std::string& name, const std::string& path,
                             uint32_t max_support = 0,
                             double sketch_epsilon = 0.0,
                             uint32_t sketch_threshold = 1000,
                             bool mmap = false) REQUIRES(!writer_mutex_);

  Status RemoveDataset(const std::string& name) REQUIRES(!writer_mutex_);

  /// Appends `rows` (one vector of cell strings per row, in column order)
  /// to the resident dataset `name` and re-registers the result under the
  /// same name. Apart from one copy of each column's old payload words
  /// into the successor's owned payload -- queries in flight keep reading
  /// the old version -- the work is proportional to the batch: only the
  /// new rows are encoded and packed, sketch sidecars absorb the tail
  /// (table/append.h), and each column's digest extends its parent's
  /// over the new words, so the new fingerprint costs O(batch) too. The
  /// fingerprint changes with the contents, so cached answers for the
  /// old contents can never be served for the new ones. Writers
  /// (RegisterDataset, RemoveDataset, Ingest) are serialized, so
  /// concurrent ingests onto one dataset all land.
  Status Ingest(const std::string& name,
                const std::vector<std::vector<std::string>>& rows)
      REQUIRES(!writer_mutex_);

  /// Synchronous dispatch. `cancel` may be null; when set, the caller may
  /// flip it from any thread to abort the query at the next round.
  Result<QueryResponse> Run(const QuerySpec& spec,
                            const CancellationToken* cancel = nullptr)
      REQUIRES(!admission_mutex_);

  /// Asynchronous dispatch on the engine's pool. The returned future is
  /// deferred: get() or wait() blocks until the query has finished and the
  /// pool has recorded its run time (wait_for() reports
  /// std::future_status::deferred).
  std::future<Result<QueryResponse>> Submit(
      QuerySpec spec, const CancellationToken* cancel = nullptr);

  EngineCounters GetCounters() const;

  DatasetRegistry& registry() { return registry_; }
  const EngineConfig& config() const { return config_; }

  /// The engine's metric store: engine counters and latency histograms,
  /// cache and registry mirrors, and both pools' queue stats. Render with
  /// RenderPrometheusText() / RenderJson(); see docs/OBSERVABILITY.md.
  /// The worker-utilization gauges are refreshed by GetCounters(); call
  /// it before rendering when those must be current.
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The engine's event ring: admissions, rejections, completions,
  /// cancellations, deadline expiries, ingests, dataset loads/evictions,
  /// and slow-query captures (EngineConfig::slow_query_ms). Snapshot()
  /// is safe concurrently with serving.
  const EventLog& events() const { return event_log_; }

 private:
  /// Runs the resolved query under admission control.
  Result<QueryResponse> Execute(const DatasetHandle& dataset,
                                const ResolvedSpec& resolved,
                                const CancellationToken* cancel)
      REQUIRES(!admission_mutex_);

  /// Blocks until an execution slot is free (or `control` cancels /
  /// expires, or the waiting queue is full) and claims it. Each
  /// successful admission must be paired with exactly one ReleaseSlot().
  /// `dataset` labels the admit/reject events this emits.
  Status AdmitQuery(ExecControl& control, const std::string& dataset)
      REQUIRES(!admission_mutex_);

  /// Returns an execution slot claimed by AdmitQuery.
  void ReleaseSlot() REQUIRES(!admission_mutex_);

  /// Dispatches to the right driver; returns items via `response`.
  Result<QueryResponse> Dispatch(const Table& table,
                                 const ResolvedSpec& resolved,
                                 const QueryOptions& options);

  /// Erases the row orders cached for `old`, the dataset `name` held
  /// before a write, and the entropy prefix counts taken over them,
  /// unless `name` still holds the same contents. A dataset with those
  /// contents under another name rebuilds its order and counts on next
  /// use, with the same answers.
  void DropReplacedOrders(const std::string& name,
                          const Result<DatasetHandle>& old)
      REQUIRES(writer_mutex_);

  const EngineConfig config_;

  /// Declared first: every other member resolves handles into it at
  /// construction and updates them until destruction.
  MetricsRegistry metrics_;

  /// Declared before registry_ and pool_: both emit events into it until
  /// destruction (the registry via BindEventLog, queries via Execute).
  // NOLINTNEXTLINE(swope-lock-discipline): internally synchronized ring
  EventLog event_log_;

  DatasetRegistry registry_;
  ResultCache result_cache_;
  PermutationCache permutation_cache_;
  /// Pooled per-query memory (arena + decode scratch). shared_ptr so
  /// leases riding inside outstanding QueryResponses keep the pool alive
  /// even past engine destruction.
  std::shared_ptr<QueryMemoryPool> query_memory_pool_;

  /// Serializes the writers. An Ingest reads the current version and
  /// registers its successor; two at once would both extend the same
  /// version, and the first one's batch would be lost. Queries never
  /// take it.
  Mutex writer_mutex_;

  Mutex admission_mutex_;
  CondVar admission_cv_;
  size_t in_flight_ GUARDED_BY(admission_mutex_) = 0;
  /// Queries currently blocked in AdmitQuery.
  size_t admission_waiters_ GUARDED_BY(admission_mutex_) = 0;

  /// Engine metric handles (all resolved once in the constructor).
  Counter* const queries_started_;
  Counter* const queries_ok_;
  Counter* const queries_failed_;
  Counter* const cancelled_;
  Counter* const deadline_exceeded_;
  Counter* const rows_sampled_;
  Counter* const admission_waits_;
  Counter* const rejected_;
  Counter* const queries_sketch_;
  Counter* const queries_exact_;
  Counter* const ingest_rows_;
  Gauge* const in_flight_gauge_;
  Gauge* const admission_waiting_;
  /// Whole-query wall time, one histogram per query kind (indexed by
  /// static_cast<int>(QueryKind)). Cache hits are observed too: the
  /// latency a client saw is the latency, however it was served.
  Histogram* const query_latency_ms_[6];
  /// Sampling rounds per executed query (from QueryStats::iterations).
  Histogram* const query_rounds_;
  /// Wall time of Ingest calls (parse + append + re-fingerprint).
  Histogram* const ingest_latency_ms_;
  /// Arena bytes reserved by the most recently completed executed query
  /// (swope_query_arena_bytes): the steady-state per-query footprint.
  Gauge* const query_arena_bytes_;
  /// Worker-utilization gauges per pool (swope_pool_worker_*,
  /// swope_pool_utilization_percent), refreshed by GetCounters() from
  /// ThreadPool::GetWorkerStats snapshots. The intra handles exist even
  /// when the intra pool does not (they just stay 0).
  Gauge* const executor_busy_ms_;
  Gauge* const executor_idle_ms_;
  Gauge* const executor_utilization_;
  Gauge* const intra_busy_ms_;
  Gauge* const intra_idle_ms_;
  Gauge* const intra_utilization_;

  /// Shared intra-query worker pool (null when intra_query_threads <= 1).
  /// Declared before pool_ so it outlives the executor: queries still
  /// draining from pool_ during destruction may be using it.
  std::unique_ptr<ThreadPool> intra_pool_;

  /// Last member: destroyed first, so queued queries finish while the
  /// rest of the engine is still alive.
  ThreadPool pool_;
};

}  // namespace swope

#endif  // SWOPE_ENGINE_QUERY_ENGINE_H_
