// Concurrency stress tests for ThreadPool, written to run under TSan:
// many concurrent Submits from competing threads, nested ParallelFor
// (which deadlocks on a naive future-wait implementation), exception
// propagation, and zero-length ranges.

#include "src/common/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace swope {
namespace {

TEST(ThreadPoolStressTest, ConcurrentSubmittersAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksEach);
      for (int i = 0; i < kTasksEach; ++i) {
        futures.push_back(pool.Submit([&counter] { ++counter; }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolStressTest, NestedParallelForDoesNotDeadlock) {
  // Outer iterations run as pool tasks and issue their own ParallelFor;
  // without work-helping every worker blocks waiting for subtasks that
  // can never be scheduled.
  ThreadPool pool(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(0, kOuter, [&](size_t o) {
    pool.ParallelFor(0, kInner,
                     [&, o](size_t i) { ++hits[o * kInner + i]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolStressTest, NestedParallelForSingleThreadPool) {
  // The degenerate one-worker pool is the strongest deadlock check: the
  // only worker is the one blocked inside the outer iteration.
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 4, [&](size_t) {
    pool.ParallelFor(0, 16, [&](size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolStressTest, ParallelForZeroLengthNested) {
  ThreadPool pool(2);
  std::atomic<int> outer_runs{0};
  bool touched = false;
  pool.ParallelFor(0, 4, [&](size_t) {
    ++outer_runs;
    pool.ParallelFor(3, 3, [&](size_t) { touched = true; });
    pool.ParallelFor(9, 2, [&](size_t) { touched = true; });
  });
  EXPECT_EQ(outer_runs.load(), 4);
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolStressTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](size_t i) {
                         ++ran;
                         if (i == 37) {
                           throw std::runtime_error("iteration 37 failed");
                         }
                       }),
      std::runtime_error);
  // All chunks are drained before the rethrow, so the pool is reusable
  // and no task still references the dead lambda.
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 50, [&](size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 50);
  EXPECT_GT(ran.load(), 0);
}

TEST(ThreadPoolStressTest, SubmitExceptionDeliveredThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::logic_error("boom"); });
  EXPECT_THROW(future.get(), std::logic_error);
  // The worker survives the throwing task.
  std::atomic<int> value{0};
  pool.Submit([&] { value = 11; }).get();
  EXPECT_EQ(value.load(), 11);
}

TEST(ThreadPoolStressTest, ParallelForUnderConcurrentSubmitLoad) {
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<int> background{0};
  std::thread submitter([&] {
    while (!stop.load()) {
      pool.Submit([&background] { ++background; }).get();
    }
  });
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 0);
  long long expect = 0;
  for (int v : data) expect += v;
  for (int round = 0; round < 20; ++round) {
    std::atomic<long long> sum{0};
    pool.ParallelFor(0, data.size(), [&](size_t i) { sum += data[i]; });
    ASSERT_EQ(sum.load(), expect);
  }
  stop = true;
  submitter.join();
  EXPECT_GE(background.load(), 0);
}

// Both scheduling modes survive the same mixed load: racing external
// submitters plus nested ParallelFor from pool tasks. This is the
// stress shape of concurrent engine queries fanning candidate tasks.
TEST(ThreadPoolStressTest, BothModesSurviveMixedNestedLoad) {
  for (PoolMode mode : {PoolMode::kWorkStealing, PoolMode::kSingleQueue}) {
    SCOPED_TRACE(PoolModeName(mode));
    ThreadPool pool(4, mode);
    std::atomic<int> submitted{0};
    std::vector<std::thread> submitters;
    for (int s = 0; s < 3; ++s) {
      submitters.emplace_back([&pool, &submitted] {
        std::vector<std::future<void>> futures;
        for (int i = 0; i < 100; ++i) {
          futures.push_back(pool.Submit([&submitted] { ++submitted; }));
        }
        for (auto& f : futures) f.get();
      });
    }
    std::vector<std::atomic<int>> hits(16 * 64);
    pool.ParallelFor(0, 16, [&](size_t o) {
      pool.ParallelFor(0, 64, [&, o](size_t i) { ++hits[o * 64 + i]; });
    });
    for (auto& t : submitters) t.join();
    EXPECT_EQ(submitted.load(), 300);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolStressTest, RapidConstructDestruct) {
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    // Destructor must join cleanly whether or not tasks drained.
  }
}

}  // namespace
}  // namespace swope
