// StageProfiler: per-query attribution of CPU time across the fixed
// stages of an adaptive-sampling round -- the evidence layer for kernel
// work (where do cycles go: gather vs count?).
//
// Timing uses a raw tick source: the TSC on x86-64, the generic counter
// on aarch64, and SteadyNow() nanoseconds elsewhere. Ticks are converted
// to milliseconds through a once-per-process calibration against
// SteadyNow() (busy-spin, no sleeping), so reading a stage back is cheap
// and starting/stopping a timer is one counter read -- cheap enough to
// wrap per-task work without distorting it.
//
// Profiling is an opt-in via QueryOptions::profiler, with the same
// discipline as QueryOptions::trace: when the pointer is null a
// StageTimer costs one branch and no clock read (BM_ProfileOverhead pins
// the disabled cost < 1%). Stage cells are relaxed atomics, so candidate
// updates running on pool workers record concurrently without locks.
//
// Semantics of the recorded numbers: each stage accumulates the CPU time
// spent inside that stage across all threads. On a serial run the stages
// partition the query's wall time (their sum is ~= wall). On a parallel
// run stage time is summed across workers, so the total can exceed wall
// time -- that is the point: it is the work, not the critical path.

#ifndef SWOPE_OBS_PROFILER_H_
#define SWOPE_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace swope {

/// The fixed stage taxonomy of one adaptive-sampling query. Stages are
/// disjoint: no StageTimer nests inside another stage's timer.
enum class Stage : uint8_t {
  /// Decoding bit-packed codes into scratch buffers (ColumnView::Gather),
  /// including the MI target-column gather.
  kGather = 0,
  /// Histogram counting over gathered codes (FrequencyCounter /
  /// PairCounter AddCodes, sketch AddCodes/AddPairs).
  kCount,
  /// Round-end evaluation: entropies computed from the counts (including
  /// PairCounter's joint pass) or sketch summaries, then lambda, Lemma-1
  /// bias and interval composition.
  kIntervalUpdate,
  /// Waiting for an admission slot before the query could execute.
  kSchedulingWait,
  /// Round decisions and final ranking (DecisionPolicy Decide/Finalize).
  kFinalize,
};

inline constexpr size_t kNumStages = 5;

/// Stable lowercase stage name ("gather", "count", "interval-update", ...).
const char* StageName(Stage stage);

/// Raw tick read from the fastest monotonic source the platform has.
/// Only meaningful as differences, and only when converted through
/// ProfilerTicksPerMs().
uint64_t ProfilerTicks();

/// Ticks per millisecond, calibrated once per process (thread-safe).
double ProfilerTicksPerMs();

/// Converts a tick delta to milliseconds.
double ProfilerTicksToMs(uint64_t ticks);

/// Per-query stage accumulator. Thread-safe: concurrent candidate updates
/// on pool workers record into relaxed atomic cells. Caller-owned, attached
/// to one query via QueryOptions::profiler.
class StageProfiler {
 public:
  StageProfiler() = default;

  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  /// Adds a tick delta to `stage` (and bumps its interval count).
  void Add(Stage stage, uint64_t ticks) {
    Cell& cell = cells_[static_cast<size_t>(stage)];
    cell.ticks.fetch_add(ticks, std::memory_order_relaxed);
    cell.calls.fetch_add(1, std::memory_order_relaxed);
  }

  /// Milliseconds accumulated in `stage`.
  double StageMs(Stage stage) const;
  /// Number of timed intervals recorded for `stage`.
  uint64_t StageCalls(Stage stage) const {
    return cells_[static_cast<size_t>(stage)].calls.load(
        std::memory_order_relaxed);
  }
  /// Sum of StageMs over all stages.
  double StageSumMs() const;

  /// Whole-query wall time, recorded once by the owner (the engine) after
  /// the query finishes; 0 until then. Not derived from stage cells: on a
  /// serial run the stage sum approximates it, on a parallel run the
  /// stage sum may exceed it.
  void SetWallMs(double wall_ms) { wall_ms_ = wall_ms; }
  double WallMs() const { return wall_ms_; }

  /// Heap allocations the query performed from admission through
  /// dispatch (interposer delta; see src/common/alloc_hook.h). Recorded
  /// once by the engine after the query finishes; 0 in production
  /// binaries. The serve profile block reports it as `allocs`.
  void SetAllocs(uint64_t allocs) { allocs_ = allocs; }
  uint64_t Allocs() const { return allocs_; }

  /// Drops all recorded time so one profiler can be reused across
  /// queries.
  void Clear();

 private:
  uint64_t allocs_ = 0;

  struct alignas(64) Cell {
    std::atomic<uint64_t> ticks{0};
    std::atomic<uint64_t> calls{0};
  };

  std::array<Cell, kNumStages> cells_;
  /// Written by the single owner thread after the query completes; never
  /// concurrent with readers.
  double wall_ms_ = 0.0;
};

/// RAII stage interval. Null profiler means one branch in the
/// constructor, one in the destructor, and no tick reads -- the disabled
/// cost the overhead benchmark pins.
class StageTimer {
 public:
  StageTimer(StageProfiler* profiler, Stage stage)
      : profiler_(profiler),
        stage_(stage),
        start_(profiler != nullptr ? ProfilerTicks() : 0) {}

  ~StageTimer() {
    if (profiler_ != nullptr) {
      profiler_->Add(stage_, ProfilerTicks() - start_);
    }
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageProfiler* const profiler_;
  const Stage stage_;
  const uint64_t start_;
};

/// Renders the profile as an aligned text table, one row per stage that
/// recorded time, plus a stage-sum line and (when set) the wall time:
///
///   stage              calls        ms    % of sum
///   gather                12     0.412        41.2
///   ...
std::string FormatProfileTable(const StageProfiler& profiler);

}  // namespace swope

#endif  // SWOPE_OBS_PROFILER_H_
