// Property suite for the exact-answer baselines: EntropyRank /
// EntropyFilter (and MI variants) must return EXACTLY the full-scan
// answer on every input -- that is their contract and the premise of the
// paper's comparison. Parameterized over dataset seeds.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "src/core/entropy.h"
#include "src/core/sampling_baselines.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;
using test::MakeMiTable;

class BaselineExactnessTest : public testing::TestWithParam<uint64_t> {};

std::set<size_t> Returned(const TopKResult& result) {
  std::set<size_t> indices;
  for (const auto& item : result.items) indices.insert(item.index);
  return indices;
}

TEST_P(BaselineExactnessTest, EntropyRankMatchesFullScan) {
  const uint64_t seed = GetParam();
  const Table table = MakeEntropyTable(
      {4.8, 4.1, 3.5, 2.9, 2.3, 1.7, 1.1, 0.5}, 25000, seed);
  const auto scores = ExactEntropies(table);
  std::vector<size_t> order(scores.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] > scores[b]; });

  for (size_t k : {1, 3, 5, 7}) {
    QueryOptions options;
    options.seed = seed * 13 + k;
    auto result = EntropyRankTopK(table, k, options);
    ASSERT_TRUE(result.ok());
    const std::set<size_t> expected(order.begin(), order.begin() + k);
    EXPECT_EQ(Returned(*result), expected) << "seed " << seed << " k " << k;
  }
}

TEST_P(BaselineExactnessTest, EntropyFilterMatchesFullScan) {
  const uint64_t seed = GetParam();
  const Table table = MakeEntropyTable(
      {4.8, 4.1, 3.5, 2.9, 2.3, 1.7, 1.1, 0.5}, 25000, seed);
  const auto scores = ExactEntropies(table);
  for (double eta : {0.8, 2.0, 3.2, 4.4}) {
    QueryOptions options;
    options.seed = seed * 17 + static_cast<uint64_t>(eta * 10);
    auto result = EntropyFilterQuery(table, eta, options);
    ASSERT_TRUE(result.ok());
    for (size_t j = 0; j < scores.size(); ++j) {
      EXPECT_EQ(result->Contains(j), scores[j] >= eta)
          << "seed " << seed << " eta " << eta << " j " << j;
    }
  }
}

TEST_P(BaselineExactnessTest, MiRankMatchesFullScan) {
  const uint64_t seed = GetParam();
  const Table table =
      MakeMiTable({0.9, 0.7, 0.45, 0.2, 0.0}, 25000, seed);
  auto scores = ExactMutualInformations(table, 0);
  ASSERT_TRUE(scores.ok());
  std::vector<size_t> order;
  for (size_t j = 1; j < table.num_columns(); ++j) order.push_back(j);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*scores)[a] > (*scores)[b];
  });
  for (size_t k : {1, 2, 3}) {
    QueryOptions options;
    options.seed = seed * 19 + k;
    auto result = MiRankTopK(table, 0, k, options);
    ASSERT_TRUE(result.ok());
    const std::set<size_t> expected(order.begin(), order.begin() + k);
    EXPECT_EQ(Returned(*result), expected) << "seed " << seed << " k " << k;
  }
}

TEST_P(BaselineExactnessTest, MiFilterMatchesFullScan) {
  const uint64_t seed = GetParam();
  const Table table =
      MakeMiTable({0.9, 0.7, 0.45, 0.2, 0.0}, 25000, seed);
  auto scores = ExactMutualInformations(table, 0);
  ASSERT_TRUE(scores.ok());
  for (double eta : {0.1, 0.4, 1.0}) {
    QueryOptions options;
    options.seed = seed * 23 + static_cast<uint64_t>(eta * 10);
    auto result = MiFilterQuery(table, 0, eta, options);
    ASSERT_TRUE(result.ok());
    for (size_t j = 1; j < table.num_columns(); ++j) {
      EXPECT_EQ(result->Contains(j), (*scores)[j] >= eta)
          << "seed " << seed << " eta " << eta << " j " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineExactnessTest,
                         testing::Values(1, 2, 3, 4, 5, 6),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace swope
