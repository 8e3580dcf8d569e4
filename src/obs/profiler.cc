#include "src/obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "src/common/stopwatch.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace swope {

namespace {

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyNow().time_since_epoch())
          .count());
}

#if defined(__x86_64__) || defined(_M_X64)

uint64_t RawTicks() { return __rdtsc(); }

/// The TSC frequency is not architecturally published, so calibrate by
/// busy-spinning against SteadyNow() for a couple of milliseconds (no
/// sleeping; src/ code must never sleep). A 2 ms window bounds the
/// relative calibration error by the clock read jitter (~tens of ns),
/// well under the precision any stage readout needs.
double CalibrateTicksPerMs() {
  const uint64_t start_ticks = RawTicks();
  const uint64_t start_ns = SteadyNowNanos();
  uint64_t now_ns = start_ns;
  while (now_ns - start_ns < 2'000'000) {
    now_ns = SteadyNowNanos();
  }
  const uint64_t end_ticks = RawTicks();
  const double elapsed_ms = static_cast<double>(now_ns - start_ns) * 1e-6;
  return static_cast<double>(end_ticks - start_ticks) / elapsed_ms;
}

#elif defined(__aarch64__)

uint64_t RawTicks() {
  uint64_t ticks;
  asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
  return ticks;
}

/// The generic counter publishes its frequency, so no spin is needed.
double CalibrateTicksPerMs() {
  uint64_t freq_hz;
  asm volatile("mrs %0, cntfrq_el0" : "=r"(freq_hz));
  return static_cast<double>(freq_hz) * 1e-3;
}

#else

uint64_t RawTicks() { return SteadyNowNanos(); }

double CalibrateTicksPerMs() { return 1e6; }

#endif

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kGather:
      return "gather";
    case Stage::kCount:
      return "count";
    case Stage::kIntervalUpdate:
      return "interval-update";
    case Stage::kSchedulingWait:
      return "scheduling-wait";
    case Stage::kFinalize:
      return "finalize";
  }
  return "unknown";
}

uint64_t ProfilerTicks() { return RawTicks(); }

double ProfilerTicksPerMs() {
  static const double ticks_per_ms = CalibrateTicksPerMs();
  return ticks_per_ms;
}

double ProfilerTicksToMs(uint64_t ticks) {
  return static_cast<double>(ticks) / ProfilerTicksPerMs();
}

double StageProfiler::StageMs(Stage stage) const {
  return ProfilerTicksToMs(cells_[static_cast<size_t>(stage)].ticks.load(
      std::memory_order_relaxed));
}

double StageProfiler::StageSumMs() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.ticks.load(std::memory_order_relaxed);
  }
  return ProfilerTicksToMs(total);
}

void StageProfiler::Clear() {
  for (Cell& cell : cells_) {
    cell.ticks.store(0, std::memory_order_relaxed);
    cell.calls.store(0, std::memory_order_relaxed);
  }
  wall_ms_ = 0.0;
  allocs_ = 0;
}

std::string FormatProfileTable(const StageProfiler& profiler) {
  const double sum_ms = profiler.StageSumMs();
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"stage", "calls", "ms", "% of sum"});
  char buffer[64];
  for (size_t i = 0; i < kNumStages; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const uint64_t calls = profiler.StageCalls(stage);
    if (calls == 0) continue;
    const double ms = profiler.StageMs(stage);
    std::vector<std::string> cells;
    cells.emplace_back(StageName(stage));
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(calls));
    cells.emplace_back(buffer);
    std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
    cells.emplace_back(buffer);
    std::snprintf(buffer, sizeof(buffer), "%.1f",
                  sum_ms > 0.0 ? 100.0 * ms / sum_ms : 0.0);
    cells.emplace_back(buffer);
    rows.push_back(std::move(cells));
  }
  {
    std::vector<std::string> cells;
    cells.emplace_back("stage-sum");
    cells.emplace_back("");
    std::snprintf(buffer, sizeof(buffer), "%.3f", sum_ms);
    cells.emplace_back(buffer);
    cells.emplace_back("");
    rows.push_back(std::move(cells));
  }
  if (profiler.WallMs() > 0.0) {
    std::vector<std::string> cells;
    cells.emplace_back("wall");
    cells.emplace_back("");
    std::snprintf(buffer, sizeof(buffer), "%.3f", profiler.WallMs());
    cells.emplace_back(buffer);
    cells.emplace_back("");
    rows.push_back(std::move(cells));
  }

  std::vector<size_t> widths(rows.front().size(), 0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "  ";
      const std::string& cell = row[i];
      const size_t pad = widths[i] > cell.size() ? widths[i] - cell.size() : 0;
      if (i == 0) {
        out += cell;
        if (i + 1 < row.size()) out.append(pad, ' ');
      } else {
        out.append(pad, ' ');
        out += cell;
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace swope
