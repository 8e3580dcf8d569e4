// Stress for the intra-query parallel path: many concurrent queries, each
// fanning its per-candidate updates onto the shared intra-query pool, in
// both scheduling modes. Must stay clean under TSan
// (SWOPE_SANITIZE=thread) and, per docs/CORE.md, every racing copy of a
// spec must produce bitwise-identical answers -- in both modes, and equal
// to a serial engine's answers.

#include <future>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/engine/query_engine.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;
using test::MakeMiTable;

constexpr QueryKind kKinds[] = {QueryKind::kEntropyTopK,
                                QueryKind::kEntropyFilter,
                                QueryKind::kMiTopK,
                                QueryKind::kMiFilter,
                                QueryKind::kNmiTopK,
                                QueryKind::kNmiFilter};

QuerySpec MakeSpec(QueryKind kind, uint64_t seed) {
  QuerySpec spec;
  spec.dataset = NeedsTarget(kind) ? "mi" : "ent";
  spec.kind = kind;
  spec.options.seed = seed;
  if (IsTopKKind(kind)) {
    spec.k = 2;
  } else {
    spec.eta = kind == QueryKind::kNmiFilter ? 0.2 : 0.3;
  }
  if (NeedsTarget(kind)) spec.target = "t";
  return spec;
}

void RegisterTables(QueryEngine& engine) {
  ASSERT_TRUE(
      engine.RegisterDataset("ent", MakeEntropyTable({5.0, 3.0, 1.0}, 3000, 1))
          .ok());
  ASSERT_TRUE(
      engine.RegisterDataset("mi", MakeMiTable({0.2, 0.7, 0.5}, 3000, 2))
          .ok());
}

void ExpectIdenticalItems(std::span<const AttributeScore> expected,
                          std::span<const AttributeScore> actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].index, actual[i].index);
    EXPECT_EQ(expected[i].estimate, actual[i].estimate);
    EXPECT_EQ(expected[i].lower, actual[i].lower);
    EXPECT_EQ(expected[i].upper, actual[i].upper);
  }
}

// Runs a burst of 4 racing copies of each of the six query kinds on an
// engine with a 4-thread intra-query pool, and returns one
// representative answer per kind after asserting all copies agree
// bitwise. Caching is disabled so every copy truly executes and races
// the others for candidate tasks on the shared pool. The tables are
// registered fresh, so the first MI/NMI queries also race each other to
// the first count of every column (Column::ValueCounts).
std::vector<std::pmr::vector<AttributeScore>> RunBurst(PoolMode mode) {
  EngineConfig config;
  config.num_threads = 6;
  config.intra_query_threads = 4;
  config.pool_mode = mode;
  config.max_in_flight = 4;
  config.result_cache_capacity = 0;
  QueryEngine engine(config);
  RegisterTables(engine);

  constexpr int kCopies = 4;
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int copy = 0; copy < kCopies; ++copy) {
    for (QueryKind kind : kKinds) {
      futures.push_back(engine.Submit(MakeSpec(kind, 7)));
    }
  }

  std::vector<std::pmr::vector<AttributeScore>> per_kind(6);
  for (size_t i = 0; i < futures.size(); ++i) {
    auto response = futures[i].get();
    EXPECT_TRUE(response.ok())
        << "query #" << i << ": " << response.status().ToString();
    if (!response.ok()) continue;
    const size_t kind_index = i % 6;
    if (i < 6) {
      per_kind[kind_index] = response->items;
    } else {
      // Every racing copy of the same spec agrees bitwise.
      ExpectIdenticalItems(per_kind[kind_index], response->items);
    }
  }
  const EngineCounters counters = engine.GetCounters();
  EXPECT_EQ(counters.queries_ok, futures.size());
  EXPECT_EQ(counters.queries_failed, 0u);
  return per_kind;
}

// The burst is clean and internally consistent in both scheduling
// modes, and the two modes agree with each other and with a serial
// engine bitwise: scheduling is invisible in the answers.
TEST(ParallelQueryStressTest, ConcurrentQueriesBothPoolModesMatchSerial) {
  const auto stealing = RunBurst(PoolMode::kWorkStealing);
  const auto single_queue = RunBurst(PoolMode::kSingleQueue);
  ASSERT_EQ(stealing.size(), single_queue.size());
  for (size_t kind = 0; kind < stealing.size(); ++kind) {
    ExpectIdenticalItems(stealing[kind], single_queue[kind]);
  }

  EngineConfig config;
  config.result_cache_capacity = 0;  // intra_query_threads = 1: serial
  QueryEngine serial(config);
  RegisterTables(serial);
  for (size_t i = 0; i < 6; ++i) {
    auto response = serial.Run(MakeSpec(kKinds[i], 7));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectIdenticalItems(stealing[i], response->items);
  }
}

}  // namespace
}  // namespace swope
