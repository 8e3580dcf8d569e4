#include "src/core/sampling_baselines.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "src/core/entropy.h"
#include "src/core/swope_topk_entropy.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;

std::set<size_t> IndicesOf(const TopKResult& result) {
  std::set<size_t> indices;
  for (const auto& item : result.items) indices.insert(item.index);
  return indices;
}

std::set<size_t> ExactTopKSet(const Table& table, size_t k) {
  const auto scores = ExactEntropies(table);
  std::vector<size_t> order(scores.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] > scores[b]; });
  return {order.begin(), order.begin() + std::min(k, order.size())};
}

TEST(EntropyRankTest, ReturnsExactTopKSet) {
  const Table table =
      MakeEntropyTable({3.0, 1.0, 4.0, 2.0, 5.0, 0.5}, 30000, 1);
  for (size_t k : {1, 2, 3, 4}) {
    auto result = EntropyRankTopK(table, k);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(IndicesOf(*result), ExactTopKSet(table, k)) << "k=" << k;
  }
}

TEST(EntropyRankTest, RejectsBadArguments) {
  const Table table = MakeEntropyTable({1.0}, 100, 2);
  EXPECT_TRUE(EntropyRankTopK(table, 0).status().IsInvalidArgument());
  auto empty = Table::Make({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(EntropyRankTopK(*empty, 1).status().IsInvalidArgument());
}

TEST(EntropyRankTest, KEqualsColumnCountStopsImmediately) {
  const Table table = MakeEntropyTable({1.0, 2.0, 3.0}, 50000, 3);
  auto result = EntropyRankTopK(table, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->items.size(), 3u);
  // All candidates are the answer; no separation work is needed.
  EXPECT_EQ(result->stats.iterations, 1u);
}

TEST(EntropyRankTest, SmallGapForcesMoreSamplesThanSwope) {
  // Adjacent scores around the k/k+1 boundary: EntropyRank must separate
  // them exactly while SWOPE may stop as soon as its relative rule fires.
  const Table table =
      MakeEntropyTable({4.00, 3.97, 3.94, 1.0, 0.5}, 150000, 4);
  QueryOptions options;
  options.epsilon = 0.2;
  auto swope = SwopeTopKEntropy(table, 2, options);
  auto rank = EntropyRankTopK(table, 2, options);
  ASSERT_TRUE(swope.ok());
  ASSERT_TRUE(rank.ok());
  EXPECT_LT(swope->stats.final_sample_size, rank->stats.final_sample_size);
}

TEST(EntropyRankTest, ExhaustsDatasetWhenScoresTie) {
  // Two identical columns: Delta = 0 at the k boundary, so the baseline
  // must scan everything (M = N) before it can stop.
  auto shared = GenerateColumn(ColumnSpec::Uniform("x", 16), 20000, 5);
  ASSERT_TRUE(shared.ok());
  std::vector<Column> columns;
  auto a = Column::Make("a", 16, shared->codes());
  auto b = Column::Make("b", 16, shared->codes());
  auto c = GenerateColumn(ColumnSpec::EntropyTargeted("c", 16, 0.5), 20000, 6);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  columns.push_back(std::move(a).value());
  columns.push_back(std::move(b).value());
  columns.push_back(std::move(c).value());
  auto table = Table::Make(std::move(columns));
  ASSERT_TRUE(table.ok());

  auto result = EntropyRankTopK(*table, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.exhausted_dataset);
  // At M = N the bounds collapse and the tie is resolved arbitrarily but
  // exactly: either of the two identical columns is a correct answer.
  EXPECT_TRUE(result->items[0].index == 0 || result->items[0].index == 1);
}

TEST(EntropyRankTest, DeterministicInSeed) {
  const Table table = MakeEntropyTable({2.0, 4.0, 3.0}, 20000, 7);
  QueryOptions options;
  options.seed = 123;
  auto a = EntropyRankTopK(table, 2, options);
  auto b = EntropyRankTopK(table, 2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(IndicesOf(*a), IndicesOf(*b));
  EXPECT_EQ(a->stats.final_sample_size, b->stats.final_sample_size);
}

TEST(EntropyRankTest, ItemsSortedByLowerBound) {
  const Table table = MakeEntropyTable({1.0, 5.0, 3.0, 4.0}, 30000, 8);
  auto result = EntropyRankTopK(table, 4);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->items.size(); ++i) {
    EXPECT_GE(result->items[i - 1].lower, result->items[i].lower);
  }
}

}  // namespace
}  // namespace swope
