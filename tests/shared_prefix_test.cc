// The shared entropy prefix state (src/core/shared_prefix.h) changes no
// answer: whichever query counted a round, and in whatever order or
// concurrency queries run, every answer and every stat renders
// byte-identically to a query that counted its whole prefix itself.

#include "src/core/shared_prefix.h"

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_topk_entropy.h"
#include "src/datagen/dataset_presets.h"
#include "src/engine/query_engine.h"
#include "src/engine/serve.h"
#include "src/table/column_view.h"
#include "src/table/shuffle.h"
#include "tests/test_util.h"

namespace swope {
namespace {

// The cdc preset with perfbench's support cut: about a hundred columns
// of mixed support, so specs stop at many different depths.
const Table& CdcTable() {
  static const Table table = [] {
    auto made = MakePresetTable(DatasetPreset::kCdc, 12000, 5);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    return std::move(*made).DropHighSupportColumns(1000);
  }();
  return table;
}

// 48 mixed entropy top-k and filter specs over dataset "cdc".
std::vector<QuerySpec> MixedSpecs() {
  std::vector<QuerySpec> specs;
  const double epsilons[] = {0.05, 0.08, 0.1, 0.15, 0.2, 0.3};
  for (size_t i = 0; i < 24; ++i) {
    QuerySpec topk;
    topk.dataset = "cdc";
    topk.kind = QueryKind::kEntropyTopK;
    topk.k = 1 + (i * 7) % 10;
    topk.options.epsilon = epsilons[i % 6];
    specs.push_back(topk);

    QuerySpec filter;
    filter.dataset = "cdc";
    filter.kind = QueryKind::kEntropyFilter;
    filter.eta = 0.5 + 0.25 * static_cast<double>((i * 5) % 11);
    filter.options.epsilon = epsilons[(i + 3) % 6];
    specs.push_back(filter);
  }
  return specs;
}

EngineConfig Config(size_t intra_query_threads) {
  EngineConfig config;
  config.num_threads = 1;
  config.intra_query_threads = intra_query_threads;
  config.result_cache_capacity = 0;  // every query executes
  return config;
}

std::string Render(QueryEngine& engine, const QuerySpec& spec) {
  auto response = engine.Run(spec);
  if (!response.ok()) return "error: " + response.status().ToString();
  return QueryResponseToJson(*response);
}

// One fresh engine per spec: every query counts its whole prefix.
std::vector<std::string> RunFresh(const Table& table,
                                  const std::vector<QuerySpec>& specs,
                                  size_t intra_query_threads) {
  std::vector<std::string> replies;
  for (const QuerySpec& spec : specs) {
    QueryEngine engine(Config(intra_query_threads));
    EXPECT_TRUE(engine.RegisterDataset(spec.dataset, table).ok());
    replies.push_back(Render(engine, spec));
  }
  return replies;
}

TEST(ColumnPrefixTest, PointsAreTheEntropyOfTheCountsSoFar) {
  ColumnPrefix prefix(/*support=*/4, /*reserved_points=*/3, nullptr);
  MutexLock lock(prefix.mutex());
  EXPECT_EQ(prefix.points(), 0u);
  const ValueCode first[] = {0, 1, 1, 3};
  prefix.AddCodes(first, 4);
  prefix.RecordPoint();
  const ValueCode second[] = {2, 2, 0, 1};
  prefix.AddCodes(second, 4);
  prefix.RecordPoint();
  ASSERT_EQ(prefix.points(), 2u);
  EXPECT_EQ(prefix.depth(), 8u);
  const std::vector<uint64_t> after_first = {1, 2, 0, 1};
  const std::vector<uint64_t> after_second = {2, 3, 2, 1};
  EXPECT_EQ(prefix.entropy(0), EntropyFromCounts(after_first, 4));
  EXPECT_EQ(prefix.entropy(1), EntropyFromCounts(after_second, 8));
}

TEST(SharedPrefixTest, OneStatePerScheduleForOneTable) {
  const Table table = test::MakeEntropyTable({1.0, 2.0}, 500, 3);
  SharedPrefix shared(ShuffledRowOrder(500, 9));
  auto a = shared.Entropy(table, {64, 2.0});
  auto b = shared.Entropy(table, {64, 2.0});
  auto other_m0 = shared.Entropy(table, {128, 2.0});
  auto other_growth = shared.Entropy(table, {64, 1.5});
  ASSERT_TRUE(a.ok() && b.ok() && other_m0.ok() && other_growth.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_NE(*a, *other_m0);
  EXPECT_NE(*a, *other_growth);
  EXPECT_NE(*other_m0, *other_growth);

  // A table with other column supports cannot read these counts.
  const Table wider = test::MakeEntropyTable({1.0, 2.0, 3.0}, 500, 3);
  EXPECT_TRUE(shared.Entropy(wider, {64, 2.0}).status().IsInvalidArgument());
}

// Schedules come from clients, so the states kept per order are bounded:
// past kMaxSchedules the least recently used one is dropped, while a
// query still holding it keeps reading it.
TEST(SharedPrefixTest, KeepsTheMostRecentlyUsedSchedules) {
  const Table table = test::MakeEntropyTable({1.0, 2.0}, 500, 3);
  SharedPrefix shared(ShuffledRowOrder(500, 9));
  auto held = shared.Entropy(table, {16, 2.0});
  ASSERT_TRUE(held.ok());
  {
    MutexLock lock((*held)->column(0).mutex());
    const ValueCode codes[] = {0, 1};
    (*held)->column(0).AddCodes(codes, 2);
    (*held)->column(0).RecordPoint();
  }
  std::vector<std::shared_ptr<EntropyPrefix>> others;
  for (uint64_t m0 = 17; m0 < 17 + SharedPrefix::kMaxSchedules; ++m0) {
    auto state = shared.Entropy(table, {m0, 2.0});
    ASSERT_TRUE(state.ok());
    others.push_back(*state);
  }
  // {16, 2.0} was used least recently, so it was dropped: asking again
  // builds an empty state, and the holder still sees its own.
  auto rebuilt = shared.Entropy(table, {16, 2.0});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt->get(), held->get());
  {
    MutexLock lock((*rebuilt)->column(0).mutex());
    EXPECT_EQ((*rebuilt)->column(0).points(), 0u);
  }
  {
    MutexLock lock((*held)->column(0).mutex());
    EXPECT_EQ((*held)->column(0).points(), 1u);
  }
  // That evicted {17, 2.0}; the most recent schedules are still shared.
  EXPECT_NE(shared.Entropy(table, {17, 2.0})->get(), others.front().get());
  EXPECT_EQ(shared.Entropy(table, {16 + SharedPrefix::kMaxSchedules, 2.0})
                ->get(),
            others.back().get());
}

// A library call with a SharedPrefix answers exactly as one without: the
// first call counts into the shared state, the next reads it, and a call
// without the hook counts into a query-local state.
TEST(SharedPrefixTest, LibraryCallsMatchWithAndWithoutTheHook) {
  const Table& table = CdcTable();
  auto shared = std::make_shared<SharedPrefix>(
      ShuffledRowOrder(static_cast<uint32_t>(table.num_rows()), 42));
  for (double epsilon : {0.05, 0.2, 0.1}) {
    QueryOptions local;
    local.epsilon = epsilon;
    QueryOptions hooked = local;
    hooked.shared_prefix = shared;
    auto expected = SwopeTopKEntropy(table, 3, local);
    auto actual = SwopeTopKEntropy(table, 3, hooked);
    ASSERT_TRUE(expected.ok() && actual.ok());
    ASSERT_EQ(expected->items.size(), actual->items.size());
    for (size_t i = 0; i < expected->items.size(); ++i) {
      EXPECT_EQ(expected->items[i].index, actual->items[i].index);
      EXPECT_EQ(expected->items[i].lower, actual->items[i].lower);
      EXPECT_EQ(expected->items[i].upper, actual->items[i].upper);
    }
    EXPECT_EQ(expected->stats.final_sample_size,
              actual->stats.final_sample_size);
    EXPECT_EQ(expected->stats.iterations, actual->stats.iterations);
    EXPECT_EQ(expected->stats.cells_scanned, actual->stats.cells_scanned);

    auto filter_expected = SwopeFilterEntropy(table, 2.0, local);
    auto filter_actual = SwopeFilterEntropy(table, 2.0, hooked);
    ASSERT_TRUE(filter_expected.ok() && filter_actual.ok());
    ASSERT_EQ(filter_expected->items.size(), filter_actual->items.size());
    for (size_t i = 0; i < filter_expected->items.size(); ++i) {
      EXPECT_EQ(filter_expected->items[i].index,
                filter_actual->items[i].index);
      EXPECT_EQ(filter_expected->items[i].estimate,
                filter_actual->items[i].estimate);
    }
    EXPECT_EQ(filter_expected->stats.cells_scanned,
              filter_actual->stats.cells_scanned);
  }
}

// The four ways of running one spec list -- a fresh engine per query, one
// engine in order, one in reverse order, four client threads at once --
// render every answer and stat byte-identically, at one and at four
// intra-query threads.
TEST(SharedPrefixEngineTest, AnswersIgnoreWhoCountedWhichRound) {
  const Table& table = CdcTable();
  const std::vector<QuerySpec> specs = MixedSpecs();
  ASSERT_GE(specs.size(), 40u);
  const std::vector<std::string> expected = RunFresh(table, specs, 1);
  const uint64_t cells = table.num_rows() * table.num_columns();

  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("intra_query_threads=" + std::to_string(threads));
    EXPECT_EQ(RunFresh(table, specs, threads), expected);

    {
      QueryEngine engine(Config(threads));
      ASSERT_TRUE(engine.RegisterDataset("cdc", table).ok());
      for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(Render(engine, specs[i]), expected[i]) << "in order, " << i;
      }
      // One order and one schedule: each (column, row) counted once.
      const EngineCounters counters = engine.GetCounters();
      EXPECT_LE(counters.prefix_cells_counted, cells);
      EXPECT_GT(counters.prefix_cells_reused, counters.prefix_cells_counted);
    }
    {
      QueryEngine engine(Config(threads));
      ASSERT_TRUE(engine.RegisterDataset("cdc", table).ok());
      for (size_t i = specs.size(); i-- > 0;) {
        EXPECT_EQ(Render(engine, specs[i]), expected[i]) << "reversed, " << i;
      }
      EXPECT_LE(engine.GetCounters().prefix_cells_counted, cells);
    }
    {
      QueryEngine engine(Config(threads));
      ASSERT_TRUE(engine.RegisterDataset("cdc", table).ok());
      constexpr size_t kClients = 4;
      std::vector<std::string> replies(specs.size());
      std::vector<std::thread> clients;
      for (size_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          for (size_t i = t; i < specs.size(); i += kClients) {
            replies[i] = Render(engine, specs[i]);
          }
        });
      }
      for (std::thread& client : clients) client.join();
      EXPECT_EQ(replies, expected);
      EXPECT_LE(engine.GetCounters().prefix_cells_counted, cells);
    }
  }
}

// Rows 0..count-1 of `table` as ingest cells.
std::vector<std::vector<std::string>> HeadRows(const Table& table,
                                               uint64_t count) {
  std::vector<std::vector<std::string>> rows(count);
  std::vector<ValueCode> scratch;
  for (const Column& column : table.columns()) {
    const ValueCode* codes = ColumnView(column).Decode(0, count, scratch);
    for (uint64_t r = 0; r < count; ++r) {
      rows[r].push_back(column.LabelOf(codes[r]));
    }
  }
  return rows;
}

// Once a write replaces a version, its counts are gone: the next answers
// equal a fresh engine's on the new contents.
TEST(SharedPrefixEngineTest, WritesDropTheReplacedCounts) {
  const Table& table = CdcTable();
  std::vector<QuerySpec> specs = MixedSpecs();
  specs.resize(12);
  QueryEngine engine(Config(1));
  ASSERT_TRUE(engine.RegisterDataset("cdc", table).ok());
  for (const QuerySpec& spec : specs) Render(engine, spec);

  auto expect_fresh = [&](const std::string& step) {
    const Table now = engine.registry().Get("cdc").value()->table;
    const std::vector<std::string> fresh = RunFresh(now, specs, 1);
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(Render(engine, specs[i]), fresh[i]) << step << ", " << i;
    }
  };

  ASSERT_TRUE(engine.Ingest("cdc", HeadRows(table, 700)).ok());
  expect_fresh("after ingest");

  auto replacement = MakePresetTable(DatasetPreset::kCdc, 9000, 8);
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(engine
                  .RegisterDataset("cdc", std::move(*replacement)
                                              .DropHighSupportColumns(1000))
                  .ok());
  expect_fresh("after replace");

  ASSERT_TRUE(engine.RemoveDataset("cdc").ok());
  ASSERT_TRUE(engine.RegisterDataset("cdc", table).ok());
  expect_fresh("after remove and reload");
}

// Overrides that change the order (seed=, sequential=) or the schedule
// (m0=, growth=, pf= through M0) read a state of their own: their first
// query counts cells, and every answer matches a fresh engine's.
TEST(SharedPrefixEngineTest, OverridesGetTheirOwnState) {
  const Table& table = CdcTable();
  QueryEngine engine(Config(1));
  ASSERT_TRUE(engine.RegisterDataset("cdc", table).ok());
  QuerySpec base;
  base.dataset = "cdc";
  base.kind = QueryKind::kEntropyTopK;
  base.k = 4;
  base.options.epsilon = 0.05;
  Render(engine, base);

  std::vector<QuerySpec> overrides(6, base);
  overrides[0].options.initial_sample_size = 300;
  overrides[1].options.growth_factor = 1.5;
  overrides[2].options.growth_factor = 3.0;
  overrides[3].options.seed = 7;
  overrides[4].options.sequential_sampling = true;
  overrides[5].options.failure_probability = 0.01;
  const std::vector<std::string> fresh = RunFresh(table, overrides, 1);
  for (size_t i = 0; i < overrides.size(); ++i) {
    const uint64_t counted = engine.GetCounters().prefix_cells_counted;
    EXPECT_EQ(Render(engine, overrides[i]), fresh[i]) << i;
    EXPECT_GT(engine.GetCounters().prefix_cells_counted, counted) << i;

    // A looser query on the same override reads the state it left.
    QuerySpec looser = overrides[i];
    looser.options.epsilon = 0.3;
    const uint64_t before = engine.GetCounters().prefix_cells_counted;
    EXPECT_EQ(Render(engine, looser), RunFresh(table, {looser}, 1)[0]) << i;
    EXPECT_EQ(engine.GetCounters().prefix_cells_counted, before) << i;
  }
}

}  // namespace
}  // namespace swope
