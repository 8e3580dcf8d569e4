// A fixed-size fork-join loop for the harness's untimed work: input
// generation and ground truth.

#ifndef SWOPE_PERFBENCH_HARNESS_PARALLEL_H_
#define SWOPE_PERFBENCH_HARNESS_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

inline constexpr size_t kHarnessThreads = 4;

/// Runs fn(i) for i in [0, n) on kHarnessThreads threads; returns the
/// first error any call reported.
template <typename Fn>
swope::Status ParallelFor(size_t n, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<swope::Status> errors(kHarnessThreads, swope::Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kHarnessThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < n && errors[t].ok(); i = next++) {
        errors[t] = fn(i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const swope::Status& error : errors) {
    if (!error.ok()) return error;
  }
  return swope::Status::OK();
}

}  // namespace perfbench

#endif  // SWOPE_PERFBENCH_HARNESS_PARALLEL_H_
