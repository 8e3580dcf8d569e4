#include "src/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "src/obs/metrics.h"

namespace swope {

namespace {

// Identity of the current thread within its owning pool, set once at
// worker startup. Lets Submit route nested work to the submitting
// worker's own deque and RunOneTask pop it LIFO.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

}  // namespace

bool ParsePoolMode(const std::string& text, PoolMode* out) {
  if (text == "stealing") {
    *out = PoolMode::kWorkStealing;
    return true;
  }
  if (text == "single-queue") {
    *out = PoolMode::kSingleQueue;
    return true;
  }
  return false;
}

const char* PoolModeName(PoolMode mode) {
  return mode == PoolMode::kWorkStealing ? "stealing" : "single-queue";
}

ThreadPool::ThreadPool(size_t num_threads, MetricsRegistry* metrics,
                       const std::string& pool_name, PoolMode mode)
    : mode_(mode),
      worker_cells_(std::max<size_t>(1, num_threads) + 1),
      queue_depth_(metrics != nullptr
                       ? metrics->GetGauge("swope_pool_queue_depth",
                                           {{"pool", pool_name}})
                       : nullptr),
      tasks_total_(metrics != nullptr
                       ? metrics->GetCounter("swope_pool_tasks_total",
                                             {{"pool", pool_name}})
                       : nullptr),
      steals_total_(metrics != nullptr
                       ? metrics->GetCounter("swope_pool_steals_total",
                                             {{"pool", pool_name}})
                       : nullptr),
      wait_ms_(metrics != nullptr
                   ? metrics->GetHistogram("swope_pool_task_wait_ms",
                                           {{"pool", pool_name}},
                                           DefaultLatencyBucketsMs())
                   : nullptr),
      run_ms_(metrics != nullptr
                  ? metrics->GetHistogram("swope_pool_task_run_ms",
                                          {{"pool", pool_name}},
                                          DefaultLatencyBucketsMs())
                  : nullptr) {
  const size_t n = std::max<size_t>(1, num_threads);
  if (mode_ == PoolMode::kWorkStealing) {
    deques_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      deques_.push_back(std::make_unique<StealDeque>());
    }
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // A fresh thread starts with no locks held; stating that lets the
    // negative-capability analysis accept the WorkerLoop call.
    workers_.emplace_back(
        [this, i]() REQUIRES(!mutex_) { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  // Ownership transfers to the raw queue/deque cells here and is
  // reclaimed by RunTask; unique_ptr brackets both ends.
  auto owned = std::make_unique<Task>();
  owned->fn = std::move(task);
  std::future<void> future = owned->done.get_future();
  Task* queued = owned.release();
  if (mode_ == PoolMode::kWorkStealing && tls_pool == this &&
      deques_[tls_worker_index]->Push(queued)) {
    // Nested submission from one of our own workers: deque push, no
    // lock. The idle loop's timed wait bounds the (rare) missed-notify
    // window, so the lock-free notify below is safe.
    pending_.fetch_add(1);
    if (queue_depth_ != nullptr) queue_depth_->Add(1);
    cv_.NotifyOne();
    return future;
  }
  SubmitToInjector(queued);
  return future;
}

void ThreadPool::SubmitToInjector(Task* task) {
  {
    MutexLock lock(mutex_);
    injector_.push(task);
  }
  pending_.fetch_add(1);
  if (queue_depth_ != nullptr) queue_depth_->Add(1);
  cv_.NotifyOne();
}

size_t ThreadPool::StatsSlot() const {
  return tls_pool == this ? tls_worker_index : workers_.size();
}

std::vector<ThreadPool::WorkerStats> ThreadPool::GetWorkerStats() const {
  std::vector<WorkerStats> stats(worker_cells_.size());
  for (size_t i = 0; i < worker_cells_.size(); ++i) {
    const WorkerCell& cell = worker_cells_[i];
    stats[i].run_ns = cell.run_ns.load(std::memory_order_relaxed);
    stats[i].idle_ns = cell.idle_ns.load(std::memory_order_relaxed);
    stats[i].tasks = cell.tasks.load(std::memory_order_relaxed);
    stats[i].steals = cell.steals.load(std::memory_order_relaxed);
  }
  return stats;
}

void ThreadPool::RunTask(Task* task) {
  const std::unique_ptr<Task> owned(task);  // reclaim from the queues
  WorkerCell& cell = worker_cells_[StatsSlot()];
  if (queue_depth_ != nullptr) {
    queue_depth_->Add(-1);
    tasks_total_->Increment();
    wait_ms_->Observe(task->wait.ElapsedMillis());
  }
  Stopwatch run;
  std::exception_ptr error;
  try {
    task->fn();
  } catch (...) {
    error = std::current_exception();
  }
  const double run_ms = run.ElapsedMillis();
  if (run_ms_ != nullptr) run_ms_->Observe(run_ms);
  cell.run_ns.fetch_add(static_cast<uint64_t>(run_ms * 1e6),
                        std::memory_order_relaxed);
  cell.tasks.fetch_add(1, std::memory_order_relaxed);
  if (error != nullptr) {
    task->done.set_exception(error);
  } else {
    task->done.set_value();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  const size_t total = end - begin;
  // Single-queue keeps the one-chunk-per-worker split (the A/B
  // baseline); stealing oversubscribes so uneven chunks rebalance by
  // theft.
  const size_t target_chunks = mode_ == PoolMode::kWorkStealing
                                   ? num_threads() * 4
                                   : num_threads();
  const size_t chunks = std::min(total, std::max<size_t>(1, target_chunks));
  const size_t chunk_size = (total + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = begin + c * chunk_size;
    const size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    futures.push_back(Submit([lo, hi, &fn] {
      for (size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Wait with work-helping: when this is itself a pool task (nested
  // ParallelFor) every worker may be blocked here, so queued work would
  // never drain if we simply slept on the futures. Helping also means the
  // pool cannot deadlock regardless of nesting depth or thread count. In
  // stealing mode helpers raid peer deques too, so an external caller
  // (e.g. a query blocked on its round's candidate tasks) contributes a
  // full execution lane instead of sleeping.
  //
  // Every future is drained before any exception is rethrown -- the chunk
  // lambdas capture `fn` by reference, so no chunk may outlive this frame.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!RunOneTask()) {
        // Nothing runnable anywhere: our chunk is mid-flight on another
        // thread. Poll with a short timeout in case helpable work
        // appears.
        future.wait_for(std::chrono::milliseconds(1));
      }
    }
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool::Task* ThreadPool::PopInjector() {
  MutexLock lock(mutex_);
  if (injector_.empty()) return nullptr;
  Task* task = injector_.front();
  injector_.pop();
  return task;
}

ThreadPool::Task* ThreadPool::TrySteal(const StealDeque* self) {
  // One sweep starting after the caller's own slot (or 0 for external
  // threads) so victims rotate instead of pack-attacking deque 0.
  const size_t n = deques_.size();
  const size_t start = (tls_pool == this) ? tls_worker_index + 1 : 0;
  for (size_t i = 0; i < n; ++i) {
    StealDeque* victim = deques_[(start + i) % n].get();
    if (victim == self) continue;
    Task* task = victim->Steal();
    if (task != nullptr) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      worker_cells_[StatsSlot()].steals.fetch_add(1,
                                                  std::memory_order_relaxed);
      if (steals_total_ != nullptr) steals_total_->Increment();
      return task;
    }
  }
  return nullptr;
}

ThreadPool::Task* ThreadPool::FindTask(StealDeque* self) {
  if (self != nullptr) {
    Task* task = self->Pop();
    if (task != nullptr) return task;
  }
  Task* task = PopInjector();
  if (task != nullptr) return task;
  if (mode_ == PoolMode::kWorkStealing) return TrySteal(self);
  return nullptr;
}

bool ThreadPool::RunOneTask() {
  StealDeque* self =
      (mode_ == PoolMode::kWorkStealing && tls_pool == this)
          ? deques_[tls_worker_index].get()
          : nullptr;
  Task* task = FindTask(self);
  if (task == nullptr) return false;
  pending_.fetch_sub(1);
  RunTask(task);
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_pool = this;
  tls_worker_index = worker_index;
  StealDeque* self = mode_ == PoolMode::kWorkStealing
                         ? deques_[worker_index].get()
                         : nullptr;
  for (;;) {
    Task* task = FindTask(self);
    if (task != nullptr) {
      pending_.fetch_sub(1);
      RunTask(task);
      continue;
    }
    MutexLock lock(mutex_);
    // Drain-before-exit: stop_ only wins once no task is queued
    // anywhere, preserving the pre-stealing destructor contract.
    Stopwatch idle;
    while (!stop_ && pending_.load() == 0) {
      // Timed wait: a worker pushing to its own deque notifies without
      // the lock, so a wakeup can race this sleep; the timeout bounds
      // that window instead of serializing the push hot path.
      cv_.WaitFor(mutex_, std::chrono::milliseconds(1));
    }
    worker_cells_[worker_index].idle_ns.fetch_add(
        static_cast<uint64_t>(idle.ElapsedMillis() * 1e6),
        std::memory_order_relaxed);
    if (stop_ && pending_.load() == 0) return;
  }
}

}  // namespace swope
