#include "src/core/sampling_baselines.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "src/core/entropy.h"
#include "src/core/swope_topk_mi.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeMiTable;

std::set<size_t> IndicesOf(const TopKResult& result) {
  std::set<size_t> indices;
  for (const auto& item : result.items) indices.insert(item.index);
  return indices;
}

std::set<size_t> ExactTopKMiSet(const Table& table, size_t target, size_t k) {
  auto scores = ExactMutualInformations(table, target);
  EXPECT_TRUE(scores.ok());
  std::vector<size_t> order;
  for (size_t j = 0; j < table.num_columns(); ++j) {
    if (j != target) order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*scores)[a] > (*scores)[b];
  });
  return {order.begin(), order.begin() + std::min(k, order.size())};
}

TEST(MiRankTest, ReturnsExactTopKSet) {
  const Table table = MakeMiTable({0.9, 0.5, 0.1, 0.7, 0.0}, 30000, 1);
  for (size_t k : {1, 2, 3}) {
    auto result = MiRankTopK(table, 0, k);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(IndicesOf(*result), ExactTopKMiSet(table, 0, k)) << "k=" << k;
  }
}

TEST(MiRankTest, RejectsBadArguments) {
  const Table table = MakeMiTable({0.5}, 100, 2);
  EXPECT_TRUE(MiRankTopK(table, 9, 1).status().IsInvalidArgument());
  EXPECT_TRUE(MiRankTopK(table, 0, 0).status().IsInvalidArgument());
}

TEST(MiRankTest, KCoveringAllCandidatesStopsImmediately) {
  const Table table = MakeMiTable({0.2, 0.8}, 50000, 3);
  auto result = MiRankTopK(table, 0, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->items.size(), 2u);
  EXPECT_EQ(result->stats.iterations, 1u);
}

TEST(MiRankTest, CloseScoresCostMoreThanSwope) {
  const Table table =
      MakeMiTable({0.80, 0.78, 0.76, 0.1, 0.05}, 100000, 4);
  QueryOptions options;
  options.epsilon = 0.5;
  auto swope = SwopeTopKMi(table, 0, 2, options);
  auto rank = MiRankTopK(table, 0, 2, options);
  ASSERT_TRUE(swope.ok());
  ASSERT_TRUE(rank.ok());
  EXPECT_LE(swope->stats.final_sample_size, rank->stats.final_sample_size);
}

TEST(MiRankTest, DeterministicInSeed) {
  const Table table = MakeMiTable({0.3, 0.6}, 20000, 5);
  QueryOptions options;
  options.seed = 9;
  auto a = MiRankTopK(table, 0, 1, options);
  auto b = MiRankTopK(table, 0, 1, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->items[0].index, b->items[0].index);
  EXPECT_EQ(a->stats.final_sample_size, b->stats.final_sample_size);
}

}  // namespace
}  // namespace swope
