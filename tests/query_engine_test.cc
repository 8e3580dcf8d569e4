#include "src/engine/query_engine.h"

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/swope_filter_mi.h"
#include "src/core/swope_topk_entropy.h"
#include "src/engine/serve.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;
using test::MakeMiTable;

QuerySpec EntropyTopKSpec(const std::string& dataset, size_t k) {
  QuerySpec spec;
  spec.dataset = dataset;
  spec.kind = QueryKind::kEntropyTopK;
  spec.k = k;
  return spec;
}

QuerySpec MiFilterSpec(const std::string& dataset, double eta) {
  QuerySpec spec;
  spec.dataset = dataset;
  spec.kind = QueryKind::kMiFilter;
  spec.eta = eta;
  spec.target = "t";
  return spec;
}

TEST(QueryEngineTest, MatchesDirectDriverCall) {
  const Table table = MakeEntropyTable({5.0, 3.0, 1.0, 4.0}, 4000, 9);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("ds", Table(table)).ok());

  const QuerySpec spec = EntropyTopKSpec("ds", 2);
  auto response = engine.Run(spec);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // The engine injects a shared permutation equal to what the driver's
  // own seed would generate, so answers must agree exactly.
  auto direct = SwopeTopKEntropy(table, 2, spec.options);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(response->items.size(), direct->items.size());
  for (size_t i = 0; i < direct->items.size(); ++i) {
    EXPECT_EQ(response->items[i].index, direct->items[i].index);
    EXPECT_EQ(response->items[i].estimate, direct->items[i].estimate);
    EXPECT_EQ(response->items[i].lower, direct->items[i].lower);
    EXPECT_EQ(response->items[i].upper, direct->items[i].upper);
  }
  EXPECT_EQ(response->stats.final_sample_size,
            direct->stats.final_sample_size);
  EXPECT_FALSE(response->cache_hit);
}

TEST(QueryEngineTest, MatchesDirectDriverCallForMiFilter) {
  const Table table = MakeMiTable({0.1, 0.9, 0.5}, 3000, 11);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("ds", Table(table)).ok());

  const QuerySpec spec = MiFilterSpec("ds", 0.3);
  auto response = engine.Run(spec);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  auto direct = SwopeFilterMi(table, 0, 0.3, spec.options);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(response->items.size(), direct->items.size());
  for (size_t i = 0; i < direct->items.size(); ++i) {
    EXPECT_EQ(response->items[i].index, direct->items[i].index);
    EXPECT_EQ(response->items[i].estimate, direct->items[i].estimate);
  }
}

TEST(QueryEngineTest, UnknownDatasetIsNotFound) {
  QueryEngine engine;
  auto response = engine.Run(EntropyTopKSpec("missing", 1));
  EXPECT_TRUE(response.status().IsNotFound());
  const EngineCounters counters = engine.GetCounters();
  EXPECT_EQ(counters.queries_started, 1u);
  EXPECT_EQ(counters.queries_failed, 1u);
  EXPECT_EQ(counters.queries_ok, 0u);
}

TEST(QueryEngineTest, RemoveDatasetStopsServingIt) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({3.0}, 500, 1)).ok());
  ASSERT_TRUE(engine.Run(EntropyTopKSpec("ds", 1)).ok());
  ASSERT_TRUE(engine.RemoveDataset("ds").ok());
  EXPECT_TRUE(engine.Run(EntropyTopKSpec("ds", 1)).status().IsNotFound());
}

TEST(QueryEngineTest, RepeatedQueryServedFromCacheWithZeroRows) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 2.0}, 3000, 4))
          .ok());

  auto first = engine.Run(EntropyTopKSpec("ds", 1));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  const uint64_t rows_after_first = engine.GetCounters().rows_sampled;
  EXPECT_GT(rows_after_first, 0u);

  auto second = engine.Run(EntropyTopKSpec("ds", 1));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  // The cached answer is the original answer, stats included.
  EXPECT_EQ(second->items.size(), first->items.size());
  EXPECT_EQ(second->stats.final_sample_size,
            first->stats.final_sample_size);
  // And serving it sampled nothing.
  const EngineCounters counters = engine.GetCounters();
  EXPECT_EQ(counters.rows_sampled, rows_after_first);
  EXPECT_EQ(counters.result_cache_hits, 1u);
  EXPECT_EQ(counters.queries_ok, 2u);
}

TEST(QueryEngineTest, EquivalentSpecsShareOneCacheEntry) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeMiTable({0.4, 0.7}, 1000, 6)).ok());

  QuerySpec by_name;
  by_name.dataset = "ds";
  by_name.kind = QueryKind::kMiTopK;
  by_name.k = 50;  // clamps to h - 1 = 2
  by_name.target = "t";
  ASSERT_TRUE(engine.Run(by_name).ok());

  QuerySpec by_index = by_name;
  by_index.k = 2;
  by_index.target = "0";
  by_index.options.failure_probability = 1e-3;  // == 1/N explicitly
  auto response = engine.Run(by_index);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->cache_hit);
  EXPECT_EQ(engine.GetCounters().result_cache_hits, 1u);
}

TEST(QueryEngineTest, ReplacingDatasetInvalidatesItsCachedAnswers) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({3.0}, 800, 1)).ok());
  ASSERT_TRUE(engine.Run(EntropyTopKSpec("ds", 1)).ok());
  // Same name, different contents: the fingerprint changes, so the old
  // cached answer must not be served.
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({3.0}, 800, 2)).ok());
  auto response = engine.Run(EntropyTopKSpec("ds", 1));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->cache_hit);
}

TEST(QueryEngineTest, DisabledResultCacheReExecutes) {
  EngineConfig config;
  config.result_cache_capacity = 0;
  QueryEngine engine(config);
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({3.0}, 800, 1)).ok());
  ASSERT_TRUE(engine.Run(EntropyTopKSpec("ds", 1)).ok());
  auto second = engine.Run(EntropyTopKSpec("ds", 1));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
}

TEST(QueryEngineTest, PreCancelledTokenAborts) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0}, 2000, 1)).ok());
  CancellationToken token;
  token.Cancel();
  auto response = engine.Run(EntropyTopKSpec("ds", 1), &token);
  EXPECT_TRUE(response.status().IsCancelled());
  const EngineCounters counters = engine.GetCounters();
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.queries_failed, 1u);
}

TEST(QueryEngineTest, TimeoutProducesDeadlineExceededOrSuccess) {
  // Wall-clock deadlines cannot be asserted deterministically: a 1 ms
  // budget either expires mid-query (DeadlineExceeded, counted) or the
  // query beats it (success). Both are legal; any other status is a bug.
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0, 3.0}, 4000, 1))
          .ok());
  QuerySpec spec = EntropyTopKSpec("ds", 2);
  spec.timeout_ms = 1;
  auto response = engine.Run(spec);
  if (response.ok()) {
    EXPECT_FALSE(response->cache_hit);
  } else {
    EXPECT_TRUE(response.status().IsDeadlineExceeded())
        << response.status().ToString();
    EXPECT_EQ(engine.GetCounters().deadline_exceeded, 1u);
  }
  // A generous deadline never fires.
  QuerySpec relaxed = EntropyTopKSpec("ds", 1);
  relaxed.timeout_ms = 60000;
  EXPECT_TRUE(engine.Run(relaxed).ok());
}

TEST(QueryEngineTest, SubmitRunsOnThePool) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 1.0}, 1500, 2))
          .ok());
  auto future = engine.Submit(EntropyTopKSpec("ds", 1));
  auto response = future.get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->items.size(), 1u);
}

TEST(QueryEngineTest, RejectsInvalidSpecs) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({3.0}, 500, 1)).ok());
  QuerySpec spec = EntropyTopKSpec("ds", 0);  // k == 0
  EXPECT_TRUE(engine.Run(spec).status().IsInvalidArgument());
}

TEST(QueryEngineTest, ConfigClampsDegenerateValues) {
  EngineConfig config;
  config.num_threads = 0;
  config.max_in_flight = 0;
  QueryEngine engine(config);
  EXPECT_EQ(engine.config().num_threads, 1u);
  EXPECT_EQ(engine.config().max_in_flight, 1u);
}

// Satellite (c): same seed + same table => byte-identical results no
// matter how many executor threads the engine uses, nor how many
// intra-query worker threads the drivers fan candidate updates across.
// Covers all six query kinds through the unified driver.
TEST(QueryEngineTest, ProfiledRunReportsStagesAndWall) {
  EngineConfig config;
  config.intra_query_threads = 1;  // serial: stage sum cannot exceed wall
  QueryEngine engine(config);
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 2.0}, 3000, 3))
          .ok());
  QuerySpec spec = EntropyTopKSpec("ds", 1);
  spec.profile = true;
  auto response = engine.Run(spec);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_NE(response->profile, nullptr);

  const double sum = response->profile->StageSumMs();
  const double wall = response->profile->WallMs();
  EXPECT_GT(sum, 0.0);
  EXPECT_GT(wall, 0.0);
  // Stages are disjoint intervals of one thread here, so their sum is
  // bounded by the measured wall (plus generous jitter slack for the
  // two clocks involved).
  EXPECT_LE(sum, wall * 1.5 + 0.5);
  EXPECT_GT(response->profile->StageCalls(Stage::kCount), 0u);

  // Profiling is not part of the canonical key: the repeat is a cache
  // hit and carries no profile.
  auto repeat = engine.Run(spec);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->cache_hit);
  EXPECT_EQ(repeat->profile, nullptr);

  // Unprofiled runs never allocate a profiler.
  QuerySpec plain = EntropyTopKSpec("ds", 2);
  auto unprofiled = engine.Run(plain);
  ASSERT_TRUE(unprofiled.ok());
  EXPECT_EQ(unprofiled->profile, nullptr);
}

TEST(QueryEngineTest, CountersExposePoolUtilizationAndEvents) {
  EngineConfig config;
  config.intra_query_threads = 2;
  QueryEngine engine(config);
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0, 1.0}, 2000, 5))
          .ok());
  // Submit (not Run) so the executor pool demonstrably executes a task.
  auto future = engine.Submit(EntropyTopKSpec("ds", 1));
  ASSERT_TRUE(future.get().ok());

  const EngineCounters counters = engine.GetCounters();
  // dataset-load + query-admit + query-complete at minimum.
  EXPECT_GE(counters.events_logged, 3u);
  EXPECT_EQ(counters.events_logged, engine.events().TotalAppended());
  EXPECT_GE(counters.executor_utilization, 0.0);
  EXPECT_LE(counters.executor_utilization, 1.0);
  EXPECT_GE(counters.intra_utilization, 0.0);
  EXPECT_LE(counters.intra_utilization, 1.0);
  // The executor ran the submitted query, so busy time was recorded.
  EXPECT_GT(counters.executor_run_ms, 0.0);
}

// Executed entropy queries split their cells between those they counted
// into the shared prefix state and those they read from it. On a
// sketch-free table the two sum to the queries' cells_scanned; a looser
// query on the same schedule counts nothing for rounds a tighter one
// covered; cache hits and MI queries add to neither. The split reaches
// the stats reply and Prometheus, and stays out of the query JSON.
TEST(QueryEngineTest, PrefixCellCountersSplitCellsScanned) {
  QueryEngine engine;
  ASSERT_TRUE(engine
                  .RegisterDataset(
                      "ent", MakeEntropyTable({5.0, 3.0, 1.0, 4.0}, 20000, 4))
                  .ok());
  ASSERT_TRUE(
      engine.RegisterDataset("mi", MakeMiTable({0.9, 0.3}, 4000, 5)).ok());
  auto counted = [&engine] {
    return engine.GetCounters().prefix_cells_counted;
  };
  auto reused = [&engine] { return engine.GetCounters().prefix_cells_reused; };

  QuerySpec tight = EntropyTopKSpec("ent", 2);
  tight.options.epsilon = 0.02;
  auto first = engine.Run(tight);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->stats.cells_scanned, 0u);
  EXPECT_EQ(counted(), first->stats.cells_scanned);
  EXPECT_EQ(reused(), 0u);

  // Same schedule (M0 does not depend on epsilon), fewer rounds: every
  // cell is read from the state.
  QuerySpec loose = tight;
  loose.options.epsilon = 0.2;
  auto second = engine.Run(loose);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_LE(second->stats.iterations, first->stats.iterations);
  EXPECT_EQ(counted(), first->stats.cells_scanned);
  EXPECT_EQ(reused(), second->stats.cells_scanned);

  QuerySpec filter;
  filter.dataset = "ent";
  filter.kind = QueryKind::kEntropyFilter;
  filter.eta = 2.0;
  auto third = engine.Run(filter);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(counted() + reused(), first->stats.cells_scanned +
                                      second->stats.cells_scanned +
                                      third->stats.cells_scanned);

  const uint64_t counted_before = counted();
  const uint64_t reused_before = reused();
  auto hit = engine.Run(tight);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  ASSERT_TRUE(engine.Run(MiFilterSpec("mi", 0.2)).ok());
  EXPECT_EQ(counted(), counted_before);
  EXPECT_EQ(reused(), reused_before);

  const std::string query_json = QueryResponseToJson(*second);
  EXPECT_EQ(query_json.find("prefix"), std::string::npos) << query_json;
  bool quit = false;
  const std::string stats = HandleRequestLine(engine, "stats", &quit);
  EXPECT_NE(stats.find("\"prefix_cells_counted\":" +
                       std::to_string(counted_before)),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"prefix_cells_reused\":" +
                       std::to_string(reused_before)),
            std::string::npos)
      << stats;
  const std::string text = engine.metrics().RenderPrometheusText();
  EXPECT_NE(text.find("swope_prefix_cells_total{source=\"counted\"} " +
                      std::to_string(counted_before) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("swope_prefix_cells_total{source=\"reused\"} " +
                      std::to_string(reused_before) + "\n"),
            std::string::npos)
      << text;
}

TEST(QueryEngineDeterminismTest, IdenticalAcrossThreadCounts) {
  const Table table = MakeMiTable({0.2, 0.8, 0.5, 0.3}, 2500, 13);

  std::vector<QuerySpec> specs;
  specs.push_back(EntropyTopKSpec("ds", 2));
  specs.push_back(MiFilterSpec("ds", 0.2));
  auto targeted = [](QueryKind kind, size_t k, double eta) {
    QuerySpec spec;
    spec.dataset = "ds";
    spec.kind = kind;
    spec.k = k;
    spec.eta = eta;
    spec.target = "t";
    return spec;
  };
  {
    QuerySpec entropy_filter;
    entropy_filter.dataset = "ds";
    entropy_filter.kind = QueryKind::kEntropyFilter;
    entropy_filter.eta = 2.0;
    specs.push_back(entropy_filter);
  }
  specs.push_back(targeted(QueryKind::kMiTopK, 2, 0.0));
  specs.push_back(targeted(QueryKind::kNmiTopK, 2, 0.0));
  specs.push_back(targeted(QueryKind::kNmiFilter, 0, 0.2));

  auto render_all = [&table, &specs](size_t num_threads,
                                     size_t intra_threads) {
    EngineConfig config;
    config.num_threads = num_threads;
    config.intra_query_threads = intra_threads;
    config.result_cache_capacity = 0;  // force real execution every time
    QueryEngine engine(config);
    EXPECT_TRUE(engine.RegisterDataset("ds", Table(table)).ok());
    std::vector<std::future<Result<QueryResponse>>> futures;
    futures.reserve(specs.size());
    for (const QuerySpec& spec : specs) futures.push_back(engine.Submit(spec));
    std::vector<std::string> rendered;
    for (auto& future : futures) {
      auto response = future.get();
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      rendered.push_back(response.ok() ? QueryResponseToJson(*response)
                                       : std::string());
    }
    return rendered;
  };

  const std::vector<std::string> single = render_all(1, 1);
  const std::vector<std::string> parallel = render_all(8, 4);
  ASSERT_EQ(single.size(), parallel.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], parallel[i]) << "spec #" << i;
  }
}

TEST(QueryEngineDeterminismTest, ConcurrentIdenticalSpecsAgree) {
  EngineConfig config;
  config.num_threads = 8;
  config.result_cache_capacity = 0;  // every run executes for real
  QueryEngine engine(config);
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 2.0, 3.5}, 2000, 3))
          .ok());

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.Submit(EntropyTopKSpec("ds", 2)));
  }
  std::string reference;
  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok());
    const std::string rendered = QueryResponseToJson(*response);
    if (reference.empty()) reference = rendered;
    EXPECT_EQ(rendered, reference);
  }
}

}  // namespace
}  // namespace swope
