#include "src/engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/alloc_hook.h"
#include "src/common/stopwatch.h"
#include "src/core/sketch_estimation.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_filter_mi.h"
#include "src/core/swope_filter_nmi.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/core/swope_topk_nmi.h"
#include "src/table/append.h"
#include "src/table/binary_io.h"
#include "src/table/csv_reader.h"
#include "src/table/sketch_sidecar.h"

namespace swope {

namespace {

bool IsCsvPath(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

Histogram* LatencyHistogram(MetricsRegistry& metrics, int kind) {
  return metrics.GetHistogram(
      "swope_engine_query_latency_ms",
      {{"kind",
        std::string(QueryKindToString(static_cast<QueryKind>(kind)))}},
      DefaultLatencyBucketsMs());
}

std::string ShortMs(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

// Compact single-line stage profile (and round summary, when traced) for
// the slow-query event payload. Fits the EventLog's bounded detail slot;
// FormatProfileTable stays the human-facing renderer.
std::string SlowQueryDetail(const StageProfiler& profiler,
                            const QueryTrace* trace) {
  std::string detail = "stages:";
  for (size_t s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    if (profiler.StageCalls(stage) == 0) continue;
    detail += " ";
    detail += StageName(stage);
    detail += "=" + ShortMs(profiler.StageMs(stage));
  }
  detail += " sum=" + ShortMs(profiler.StageSumMs());
  if (trace != nullptr && !trace->rounds().empty()) {
    detail += "; rounds:";
    for (const RoundTrace& round : trace->rounds()) {
      detail += " " + std::to_string(round.round) + ":m=" +
                std::to_string(round.sample_size) + ":ms=" +
                ShortMs(round.wall_ms);
    }
  }
  return detail;
}

// Sums one pool's per-worker telemetry into (run ms, idle ms, busy
// fraction). The final GetWorkerStats entry aggregates external helpers,
// which never park; including their run time keeps "work executed on this
// pool" honest while idle time stays worker-only.
struct PoolUtilization {
  double run_ms = 0.0;
  double idle_ms = 0.0;
  double fraction = 0.0;
};

PoolUtilization SummarizePool(const ThreadPool& pool) {
  PoolUtilization util;
  for (const ThreadPool::WorkerStats& w : pool.GetWorkerStats()) {
    util.run_ms += static_cast<double>(w.run_ns) / 1e6;
    util.idle_ms += static_cast<double>(w.idle_ns) / 1e6;
  }
  const double total = util.run_ms + util.idle_ms;
  util.fraction = total > 0.0 ? util.run_ms / total : 0.0;
  return util;
}

}  // namespace

QueryEngine::QueryEngine(EngineConfig config)
    : config_([&config] {
        config.num_threads = std::max<size_t>(1, config.num_threads);
        config.intra_query_threads =
            std::max<size_t>(1, config.intra_query_threads);
        config.max_in_flight = std::max<size_t>(1, config.max_in_flight);
        return config;
      }()),
      event_log_(config_.event_log_capacity),
      registry_(config_.memory_budget_bytes),
      result_cache_(config_.result_cache_capacity),
      permutation_cache_(config_.permutation_cache_capacity),
      query_memory_pool_(std::make_shared<QueryMemoryPool>(
          config_.query_memory_pool_size)),
      queries_started_(
          metrics_.GetCounter("swope_engine_queries_started_total")),
      queries_ok_(metrics_.GetCounter("swope_engine_queries_ok_total")),
      queries_failed_(metrics_.GetCounter("swope_engine_queries_failed_total")),
      cancelled_(metrics_.GetCounter("swope_engine_queries_cancelled_total")),
      deadline_exceeded_(
          metrics_.GetCounter("swope_engine_queries_deadline_exceeded_total")),
      rows_sampled_(metrics_.GetCounter("swope_engine_rows_sampled_total")),
      admission_waits_(
          metrics_.GetCounter("swope_engine_admission_waits_total")),
      rejected_(metrics_.GetCounter("swope_engine_rejected_total")),
      queries_sketch_(
          metrics_.GetCounter("swope_engine_queries_sketch_total")),
      queries_exact_(metrics_.GetCounter("swope_engine_queries_exact_total")),
      ingest_rows_(metrics_.GetCounter("swope_engine_ingest_rows_total")),
      in_flight_gauge_(metrics_.GetGauge("swope_engine_in_flight")),
      admission_waiting_(metrics_.GetGauge("swope_engine_admission_waiting")),
      query_latency_ms_{LatencyHistogram(metrics_, 0),
                        LatencyHistogram(metrics_, 1),
                        LatencyHistogram(metrics_, 2),
                        LatencyHistogram(metrics_, 3),
                        LatencyHistogram(metrics_, 4),
                        LatencyHistogram(metrics_, 5)},
      query_rounds_(metrics_.GetHistogram(
          "swope_query_rounds", {},
          {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64})),
      ingest_latency_ms_(metrics_.GetHistogram(
          "swope_engine_ingest_latency_ms", {}, DefaultLatencyBucketsMs())),
      query_arena_bytes_(metrics_.GetGauge("swope_query_arena_bytes")),
      executor_busy_ms_(metrics_.GetGauge("swope_pool_worker_busy_ms",
                                          {{"pool", "executor"}})),
      executor_idle_ms_(metrics_.GetGauge("swope_pool_worker_idle_ms",
                                          {{"pool", "executor"}})),
      executor_utilization_(metrics_.GetGauge(
          "swope_pool_utilization_percent", {{"pool", "executor"}})),
      intra_busy_ms_(metrics_.GetGauge("swope_pool_worker_busy_ms",
                                       {{"pool", "intra"}})),
      intra_idle_ms_(metrics_.GetGauge("swope_pool_worker_idle_ms",
                                       {{"pool", "intra"}})),
      intra_utilization_(metrics_.GetGauge("swope_pool_utilization_percent",
                                           {{"pool", "intra"}})),
      intra_pool_(config_.intra_query_threads > 1
                      ? std::make_unique<ThreadPool>(
                            config_.intra_query_threads, &metrics_, "intra",
                            config_.pool_mode)
                      : nullptr),
      pool_(config_.num_threads, &metrics_, "executor", config_.pool_mode) {
  registry_.BindMetrics(&metrics_);
  registry_.BindEventLog(&event_log_);
  result_cache_.BindMetrics(&metrics_);
  permutation_cache_.BindMetrics(&metrics_);
}

Status QueryEngine::RegisterDataset(const std::string& name, Table table) {
  const uint64_t num_rows = table.num_rows();
  SWOPE_RETURN_NOT_OK(registry_.Put(name, std::move(table)));
  event_log_.Append(EventKind::kDatasetLoad, name,
                    "rows=" + std::to_string(num_rows));
  return Status::OK();
}

Status QueryEngine::RegisterDatasetFile(const std::string& name,
                                        const std::string& path,
                                        uint32_t max_support,
                                        double sketch_epsilon,
                                        uint32_t sketch_threshold,
                                        bool mmap) {
  // The mapped loader borrows packed words straight out of the file
  // mapping (CSV has no binary image to map, so the flag is ignored).
  auto table = IsCsvPath(path)  ? ReadCsvFile(path)
               : mmap           ? ReadBinaryTableFileMapped(path)
                                : ReadBinaryTableFile(path);
  if (!table.ok()) return table.status();
  if (max_support > 0) {
    *table = table->DropHighSupportColumns(max_support);
  }
  if (sketch_epsilon > 0.0) {
    auto sketched =
        AttachSketches(*table, sketch_epsilon, kSketchDelta, sketch_threshold,
                       /*seed=*/0);
    if (!sketched.ok()) return sketched.status();
    *table = *std::move(sketched);
  }
  return RegisterDataset(name, *std::move(table));
}

Status QueryEngine::RemoveDataset(const std::string& name) {
  return registry_.Remove(name);
}

Status QueryEngine::Ingest(const std::string& name,
                           const std::vector<std::vector<std::string>>& rows) {
  Stopwatch latency;
  auto dataset = registry_.Get(name);
  if (!dataset.ok()) return dataset.status();
  auto appended = AppendRowsToTable((*dataset)->table, rows);
  if (!appended.ok()) return appended.status();
  // Put re-fingerprints the new contents; result-cache entries keyed by
  // the old fingerprint become unreachable for this name automatically.
  SWOPE_RETURN_NOT_OK(registry_.Put(name, *std::move(appended)));
  ingest_rows_->Increment(rows.size());
  const double ingest_ms = latency.ElapsedMillis();
  ingest_latency_ms_->Observe(ingest_ms);
  event_log_.Append(EventKind::kIngest, name,
                    "appended=" + std::to_string(rows.size()), ingest_ms);
  return Status::OK();
}

Result<QueryResponse> QueryEngine::Run(const QuerySpec& spec,
                                       const CancellationToken* cancel) {
  queries_started_->Increment();
  Stopwatch latency;
  auto fail = [this, &spec, &latency](Status status) -> Result<QueryResponse> {
    queries_failed_->Increment();
    if (status.IsCancelled()) {
      cancelled_->Increment();
      event_log_.Append(EventKind::kQueryCancelled, spec.dataset,
                        status.message(), latency.ElapsedMillis());
    }
    if (status.IsDeadlineExceeded()) {
      deadline_exceeded_->Increment();
      event_log_.Append(EventKind::kQueryDeadline, spec.dataset,
                        status.message(), latency.ElapsedMillis());
    }
    return status;
  };

  auto dataset = registry_.Get(spec.dataset);
  if (!dataset.ok()) return fail(dataset.status());
  auto resolved = ResolveSpec(spec, (*dataset)->table);
  if (!resolved.ok()) return fail(resolved.status());

  // A certified answer for the same (table contents, canonical spec) is
  // byte-identical to a re-run; serve it without sampling a single row.
  if (auto cached = result_cache_.Lookup((*dataset)->fingerprint,
                                         resolved->canonical_key)) {
    QueryResponse response;
    response.kind = resolved->kind;
    response.fingerprint = (*dataset)->fingerprint;
    response.canonical_key = resolved->canonical_key;
    response.cache_hit = true;
    response.items = cached->items;
    response.stats = cached->stats;
    queries_ok_->Increment();
    (response.stats.sketch_candidates > 0 ? queries_sketch_ : queries_exact_)
        ->Increment();
    const double wall_ms = latency.ElapsedMillis();
    query_latency_ms_[static_cast<int>(resolved->kind)]->Observe(wall_ms);
    event_log_.Append(
        EventKind::kQueryComplete, spec.dataset,
        std::string(QueryKindToString(resolved->kind)) + " cache-hit",
        wall_ms);
    return response;
  }

  auto response = Execute(*dataset, *resolved, cancel);
  if (!response.ok()) return fail(response.status());
  queries_ok_->Increment();
  (response->stats.sketch_candidates > 0 ? queries_sketch_ : queries_exact_)
      ->Increment();
  rows_sampled_->Increment(response->stats.final_sample_size);
  query_rounds_->Observe(static_cast<double>(response->stats.iterations));
  if (config_.result_cache_capacity > 0) {
    // The CachedAnswer copy is built only when caching is live: with
    // capacity 0 (the zero-allocation serving configuration) the heap
    // copy of the arena-backed items would be pure waste.
    result_cache_.Insert(response->fingerprint, response->canonical_key,
                         CachedAnswer{response->items, response->stats});
  }
  const double wall_ms = latency.ElapsedMillis();
  query_latency_ms_[static_cast<int>(resolved->kind)]->Observe(wall_ms);
  event_log_.Append(EventKind::kQueryComplete, spec.dataset,
                    std::string(QueryKindToString(resolved->kind)) +
                        " rounds=" +
                        std::to_string(response->stats.iterations),
                    wall_ms);
  return response;
}

std::future<Result<QueryResponse>> QueryEngine::Submit(
    QuerySpec spec, const CancellationToken* cancel) {
  // The task leaves its result in a shared slot instead of completing a
  // promise itself: the caller's future first waits on the pool's own
  // future, which ThreadPool::RunTask completes only after recording the
  // task's run time, so a caller woken by get() sees the task in
  // GetCounters().
  auto slot = std::make_shared<std::optional<Result<QueryResponse>>>();
  // The lambda runs on the executor with no admission lock held; annotate
  // so the negative-capability analysis accepts the nested Run call.
  auto run = [this, slot, spec = std::move(spec),
              cancel]() REQUIRES(!admission_mutex_) {
    slot->emplace(Run(spec, cancel));
  };
  std::future<void> done = pool_.Submit(std::move(run));
  return std::async(std::launch::deferred,
                    [slot, done = std::move(done)]() mutable {
                      done.get();
                      return std::move(**slot);
                    });
}

Result<QueryResponse> QueryEngine::Execute(const DatasetHandle& dataset,
                                           const ResolvedSpec& resolved,
                                           const CancellationToken* cancel) {
  // Executed-query wall clock: admission wait through dispatch. The
  // profiler's stage sum is compared against this (serve's profile
  // block, the CI smoke), so both start here.
  Stopwatch exec_wall;
  // Interposer baseline for the per-query `allocs` profile field; a
  // constant 0 in production binaries (src/common/alloc_hook.h).
  const uint64_t allocs_before = AllocationCount();
  // The profiler exists when the client asked for it OR slow-query
  // capture is armed: a query only known to be slow after the fact must
  // already have been profiled.
  std::shared_ptr<StageProfiler> profiler;
  if (resolved.profile || config_.slow_query_ms > 0) {
    profiler = std::make_shared<StageProfiler>();
  }

  ExecControl control;
  control.token = cancel;
  const uint64_t timeout_ms = resolved.timeout_ms > 0
                                  ? resolved.timeout_ms
                                  : config_.default_timeout_ms;
  if (timeout_ms > 0) {
    control.SetTimeout(std::chrono::milliseconds(timeout_ms));
  }

  {
    StageTimer admit_timer(profiler.get(), Stage::kSchedulingWait);
    SWOPE_RETURN_NOT_OK(AdmitQuery(control, dataset->name));
  }
  struct SlotRelease {
    QueryEngine* engine;
    ~SlotRelease() REQUIRES(!engine->admission_mutex_) {
      engine->ReleaseSlot();
    }
  } release{this};

  const Table& table = dataset->table;
  QueryOptions options = resolved.options;
  options.control = &control;
  // Pooled per-query memory: all driver/scorer state and the result
  // items allocate from this lease's arena; decode buffers come from its
  // scratch pool. The lease travels with the response so the arena stays
  // alive exactly as long as the items do.
  QueryMemoryLease memory = QueryMemoryPool::Acquire(query_memory_pool_);
  options.memory = memory->arena().resource();
  options.scratch = &memory->scratch();
  std::shared_ptr<QueryTrace> trace;
  if (resolved.trace) {
    trace = std::make_shared<QueryTrace>();
    options.trace = trace.get();
  }
  options.profiler = profiler.get();
  // Dedicated pool: intra-query ParallelFor must not share the executor,
  // where a blocked caller would help-drain whole-query tasks. Every
  // concurrent query runs its candidate updates on this one pool.
  options.pool = intra_pool_.get();
  if (table.num_rows() > 0) {
    options.shared_order = permutation_cache_.GetOrCreate(
        dataset->fingerprint, static_cast<uint32_t>(table.num_rows()),
        options.seed, options.sequential_sampling);
  }

  auto response = Dispatch(table, resolved, options);
  if (!response.ok()) return response.status();
  response->fingerprint = dataset->fingerprint;
  response->canonical_key = resolved.canonical_key;
  if (profiler != nullptr) {
    const double wall_ms = exec_wall.ElapsedMillis();
    profiler->SetWallMs(wall_ms);
    profiler->SetAllocs(AllocationCount() - allocs_before);
    if (config_.slow_query_ms > 0 && wall_ms >= config_.slow_query_ms) {
      event_log_.Append(EventKind::kSlowQuery, dataset->name,
                        SlowQueryDetail(*profiler, trace.get()), wall_ms);
    }
  }
  response->trace = std::move(trace);
  if (resolved.profile) response->profile = std::move(profiler);
  query_arena_bytes_->Set(
      static_cast<int64_t>(memory->arena().BytesReserved()));
  response->memory = std::move(memory);
  return response;
}

Status QueryEngine::AdmitQuery(ExecControl& control,
                               const std::string& dataset) {
  // Admission control: bounded concurrent executions. Waiting honours the
  // query's own deadline and cancellation (polled, so no token->cv
  // hookup is needed).
  MutexLock lock(admission_mutex_);
  if (in_flight_ >= config_.max_in_flight) {
    if (config_.max_admission_waiters > 0 &&
        admission_waiters_ >= config_.max_admission_waiters) {
      // Load shedding: bounded queue. Callers can distinguish shed
      // queries (Unavailable, retryable) from accepted-but-expired ones.
      rejected_->Increment();
      event_log_.Append(EventKind::kQueryReject, dataset,
                        "admission queue full (waiters=" +
                            std::to_string(admission_waiters_) + ")");
      return Status::Unavailable(
          "query engine: admission queue full, query rejected");
    }
    admission_waits_->Increment();
    ++admission_waiters_;
    admission_waiting_->Add(1);
    while (in_flight_ >= config_.max_in_flight) {
      const Status status = control.Check();
      if (!status.ok()) {
        --admission_waiters_;
        admission_waiting_->Add(-1);
        return status;
      }
      admission_cv_.WaitFor(admission_mutex_, std::chrono::milliseconds(5));
    }
    --admission_waiters_;
    admission_waiting_->Add(-1);
  }
  ++in_flight_;
  in_flight_gauge_->Set(static_cast<int64_t>(in_flight_));
  event_log_.Append(EventKind::kQueryAdmit, dataset,
                    "in_flight=" + std::to_string(in_flight_));
  return Status::OK();
}

void QueryEngine::ReleaseSlot() {
  {
    MutexLock lock(admission_mutex_);
    --in_flight_;
    in_flight_gauge_->Set(static_cast<int64_t>(in_flight_));
  }
  admission_cv_.NotifyOne();
}

Result<QueryResponse> QueryEngine::Dispatch(const Table& table,
                                            const ResolvedSpec& resolved,
                                            const QueryOptions& options) {
  // All six drivers return {items, stats}; `fill` hoists the shared
  // unwrap-and-move so each case is one line.
  QueryResponse response;
  response.kind = resolved.kind;
  auto fill = [&response](auto result) -> Result<QueryResponse> {
    if (!result.ok()) return result.status();
    // Adopt the driver's buffer wholesale: pmr move *construction* keeps
    // the source's (arena) resource, where move *assignment* into the
    // default-resource member would copy every element to the heap.
    std::destroy_at(&response.items);
    std::construct_at(&response.items, std::move(result->items));
    response.stats = result->stats;
    return std::move(response);
  };
  switch (resolved.kind) {
    case QueryKind::kEntropyTopK:
      return fill(SwopeTopKEntropy(table, resolved.k, options));
    case QueryKind::kEntropyFilter:
      return fill(SwopeFilterEntropy(table, resolved.eta, options));
    case QueryKind::kMiTopK:
      return fill(SwopeTopKMi(table, resolved.target, resolved.k, options));
    case QueryKind::kMiFilter:
      return fill(
          SwopeFilterMi(table, resolved.target, resolved.eta, options));
    case QueryKind::kNmiTopK:
      return fill(SwopeTopKNmi(table, resolved.target, resolved.k, options));
    case QueryKind::kNmiFilter:
      return fill(
          SwopeFilterNmi(table, resolved.target, resolved.eta, options));
  }
  return Status::Internal("query engine: unhandled query kind");
}

EngineCounters QueryEngine::GetCounters() const {
  // Assembled from independent relaxed counters: totals are exact once
  // the engine quiesces, but a snapshot taken mid-query may catch one
  // counter ahead of another (fine for monitoring).
  EngineCounters counters;
  counters.queries_started = queries_started_->Value();
  counters.queries_ok = queries_ok_->Value();
  counters.queries_failed = queries_failed_->Value();
  counters.rows_sampled = rows_sampled_->Value();
  counters.cancelled = cancelled_->Value();
  counters.deadline_exceeded = deadline_exceeded_->Value();
  counters.admission_waits = admission_waits_->Value();
  counters.rejected = rejected_->Value();
  counters.pool_steals =
      pool_.steals() +
      (intra_pool_ != nullptr ? intra_pool_->steals() : 0);
  counters.queries_sketch = queries_sketch_->Value();
  counters.queries_exact = queries_exact_->Value();
  counters.ingest_rows = ingest_rows_->Value();
  const ResultCache::Stats results = result_cache_.GetStats();
  counters.result_cache_hits = results.hits;
  counters.result_cache_misses = results.misses;
  const PermutationCache::Stats perms = permutation_cache_.GetStats();
  counters.permutation_cache_hits = perms.hits;
  counters.permutation_cache_misses = perms.misses;
  counters.registry_evictions = registry_.GetStats().evictions;
  counters.events_logged = event_log_.TotalAppended();

  // Worker utilization: snapshot both pools and refresh the gauges as a
  // side effect, so a metrics scrape that follows a stats call sees the
  // same numbers.
  const PoolUtilization executor = SummarizePool(pool_);
  counters.executor_run_ms = executor.run_ms;
  counters.executor_idle_ms = executor.idle_ms;
  counters.executor_utilization = executor.fraction;
  executor_busy_ms_->Set(static_cast<int64_t>(executor.run_ms));
  executor_idle_ms_->Set(static_cast<int64_t>(executor.idle_ms));
  executor_utilization_->Set(
      static_cast<int64_t>(executor.fraction * 100.0));
  if (intra_pool_ != nullptr) {
    const PoolUtilization intra = SummarizePool(*intra_pool_);
    counters.intra_run_ms = intra.run_ms;
    counters.intra_idle_ms = intra.idle_ms;
    counters.intra_utilization = intra.fraction;
    intra_busy_ms_->Set(static_cast<int64_t>(intra.run_ms));
    intra_idle_ms_->Set(static_cast<int64_t>(intra.idle_ms));
    intra_utilization_->Set(static_cast<int64_t>(intra.fraction * 100.0));
  }
  return counters;
}

}  // namespace swope
