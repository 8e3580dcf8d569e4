// Unit tests for the stage profiler: tick calibration sanity, RAII stage
// timers (including the disabled null-profiler path), concurrent
// recording from many threads, and the text table renderer.

#include "src/obs/profiler.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stopwatch.h"

namespace swope {
namespace {

// Busy-spins (never sleeps) until ~`ms` of wall time has passed.
void SpinFor(double ms) {
  Stopwatch watch;
  while (watch.ElapsedMillis() < ms) {
  }
}

TEST(ProfilerTest, StageNamesAreStable) {
  EXPECT_STREQ(StageName(Stage::kGather), "gather");
  EXPECT_STREQ(StageName(Stage::kCount), "count");
  EXPECT_STREQ(StageName(Stage::kIntervalUpdate), "interval-update");
  EXPECT_STREQ(StageName(Stage::kSchedulingWait), "scheduling-wait");
  EXPECT_STREQ(StageName(Stage::kFinalize), "finalize");
}

TEST(ProfilerTest, CalibrationIsPositiveAndLinear) {
  EXPECT_GT(ProfilerTicksPerMs(), 0.0);
  EXPECT_DOUBLE_EQ(ProfilerTicksToMs(0), 0.0);
  const uint64_t one_ms_ticks =
      static_cast<uint64_t>(ProfilerTicksPerMs());
  EXPECT_NEAR(ProfilerTicksToMs(one_ms_ticks), 1.0, 1e-6);
  EXPECT_NEAR(ProfilerTicksToMs(10 * one_ms_ticks), 10.0, 1e-5);
}

TEST(ProfilerTest, TicksAdvanceMonotonically) {
  const uint64_t before = ProfilerTicks();
  SpinFor(0.1);
  const uint64_t after = ProfilerTicks();
  EXPECT_GT(after, before);
}

TEST(ProfilerTest, TimerMeasuresBusySpinWithinTolerance) {
  StageProfiler profiler;
  {
    StageTimer timer(&profiler, Stage::kGather);
    SpinFor(5.0);
  }
  // Generous bounds: CI containers jitter, but a 5 ms spin can never
  // read as microseconds or as whole seconds unless calibration broke.
  EXPECT_GE(profiler.StageMs(Stage::kGather), 2.0);
  EXPECT_LE(profiler.StageMs(Stage::kGather), 500.0);
  EXPECT_EQ(profiler.StageCalls(Stage::kGather), 1u);
  EXPECT_EQ(profiler.StageCalls(Stage::kCount), 0u);
}

TEST(ProfilerTest, NullProfilerTimerIsANoOp) {
  // The disabled path of every instrumented site: must be safe and free
  // of any profiler interaction.
  StageTimer timer(nullptr, Stage::kCount);
}

TEST(ProfilerTest, AddAccumulatesTicksAndCalls) {
  StageProfiler profiler;
  profiler.Add(Stage::kCount, 100);
  profiler.Add(Stage::kCount, 250);
  profiler.Add(Stage::kIntervalUpdate, 50);
  EXPECT_EQ(profiler.StageCalls(Stage::kCount), 2u);
  EXPECT_EQ(profiler.StageCalls(Stage::kIntervalUpdate), 1u);
  EXPECT_DOUBLE_EQ(profiler.StageMs(Stage::kCount), ProfilerTicksToMs(350));
  EXPECT_DOUBLE_EQ(profiler.StageSumMs(), ProfilerTicksToMs(400));
}

TEST(ProfilerTest, WallMsIsIndependentOfStages) {
  StageProfiler profiler;
  EXPECT_DOUBLE_EQ(profiler.WallMs(), 0.0);
  profiler.SetWallMs(12.5);
  EXPECT_DOUBLE_EQ(profiler.WallMs(), 12.5);
  EXPECT_DOUBLE_EQ(profiler.StageSumMs(), 0.0);
}

TEST(ProfilerTest, ClearResetsEverything) {
  StageProfiler profiler;
  profiler.Add(Stage::kGather, 1000);
  profiler.SetWallMs(3.0);
  profiler.Clear();
  EXPECT_EQ(profiler.StageCalls(Stage::kGather), 0u);
  EXPECT_DOUBLE_EQ(profiler.StageSumMs(), 0.0);
  EXPECT_DOUBLE_EQ(profiler.WallMs(), 0.0);
}

TEST(ProfilerTest, ConcurrentAddsAreLossless) {
  StageProfiler profiler;
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&profiler] {
      for (int i = 0; i < kAdds; ++i) profiler.Add(Stage::kCount, 3);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(profiler.StageCalls(Stage::kCount),
            static_cast<uint64_t>(kThreads) * kAdds);
  EXPECT_DOUBLE_EQ(
      profiler.StageMs(Stage::kCount),
      ProfilerTicksToMs(3ull * kThreads * kAdds));
}

TEST(ProfilerTest, FormatTableListsOnlyRecordedStages) {
  StageProfiler profiler;
  profiler.Add(Stage::kGather, 1000);
  profiler.Add(Stage::kFinalize, 500);
  profiler.SetWallMs(1.5);
  const std::string table = FormatProfileTable(profiler);
  EXPECT_NE(table.find("gather"), std::string::npos) << table;
  EXPECT_NE(table.find("finalize"), std::string::npos) << table;
  EXPECT_NE(table.find("stage-sum"), std::string::npos) << table;
  EXPECT_NE(table.find("wall"), std::string::npos) << table;
  EXPECT_EQ(table.find("interval-update"), std::string::npos) << table;
  EXPECT_EQ(table.find("scheduling-wait"), std::string::npos) << table;
}

TEST(ProfilerTest, FormatTableOmitsWallWhenUnset) {
  StageProfiler profiler;
  profiler.Add(Stage::kCount, 10);
  const std::string table = FormatProfileTable(profiler);
  EXPECT_EQ(table.find("wall"), std::string::npos) << table;
}

}  // namespace
}  // namespace swope
