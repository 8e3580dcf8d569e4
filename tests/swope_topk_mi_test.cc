#include "src/core/swope_topk_mi.h"

#include <gtest/gtest.h>

#include "src/core/entropy.h"
#include "src/datagen/correlated.h"
#include "src/eval/accuracy.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::AllIndicesExcept;
using test::MakeMiTable;

TEST(SwopeTopKMiTest, RejectsBadArguments) {
  const Table table = MakeMiTable({0.5, 0.2}, 1000, 1);
  EXPECT_TRUE(SwopeTopKMi(table, 9, 1).status().IsInvalidArgument());
  EXPECT_TRUE(SwopeTopKMi(table, 0, 0).status().IsInvalidArgument());
  QueryOptions bad;
  bad.epsilon = 0.0;
  EXPECT_TRUE(SwopeTopKMi(table, 0, 1, bad).status().IsInvalidArgument());

  auto one_column =
      Table::Make({Column::FromCodes("only", {0, 1, 0, 1})});
  ASSERT_TRUE(one_column.ok());
  EXPECT_TRUE(SwopeTopKMi(*one_column, 0, 1).status().IsInvalidArgument());
}

TEST(SwopeTopKMiTest, FindsStrongestCorrelate) {
  // Candidate 2 (index 3 in the table: target is 0) copies the target 90%
  // of the time; the others are nearly independent.
  const Table table = MakeMiTable({0.05, 0.1, 0.9, 0.0}, 40000, 2);
  QueryOptions options;
  options.epsilon = 0.5;  // paper default for MI queries
  auto result = SwopeTopKMi(table, 0, 1, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->items.size(), 1u);
  EXPECT_EQ(result->items[0].index, 3u);  // candidate "c2"
  EXPECT_EQ(result->items[0].name, "c2");
}

TEST(SwopeTopKMiTest, KClampsToCandidateCount) {
  const Table table = MakeMiTable({0.3, 0.6}, 3000, 3);
  auto result = SwopeTopKMi(table, 0, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->items.size(), 2u);
}

TEST(SwopeTopKMiTest, TargetNeverReturned) {
  const Table table = MakeMiTable({0.2, 0.4, 0.6}, 10000, 4);
  auto result = SwopeTopKMi(table, 0, 3);
  ASSERT_TRUE(result.ok());
  for (const auto& item : result->items) {
    EXPECT_NE(item.index, 0u);
  }
}

TEST(SwopeTopKMiTest, WorksWithNonZeroTargetIndex) {
  const Table table = MakeMiTable({0.1, 0.8, 0.2}, 30000, 5);
  // Use candidate column 2 ("c1", the strong correlate) as target; the
  // original target column 0 should then be its best partner.
  auto result = SwopeTopKMi(table, 2, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->items.size(), 1u);
  EXPECT_EQ(result->items[0].index, 0u);
}

TEST(SwopeTopKMiTest, SortedByUpperBound) {
  const Table table = MakeMiTable({0.1, 0.5, 0.9, 0.3, 0.7}, 30000, 6);
  auto result = SwopeTopKMi(table, 0, 5);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->items.size(); ++i) {
    EXPECT_GE(result->items[i - 1].upper, result->items[i].upper);
  }
}

TEST(SwopeTopKMiTest, DeterministicInSeed) {
  const Table table = MakeMiTable({0.2, 0.6, 0.4}, 20000, 7);
  QueryOptions options;
  options.seed = 11;
  auto a = SwopeTopKMi(table, 0, 2, options);
  auto b = SwopeTopKMi(table, 0, 2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->items.size(), b->items.size());
  for (size_t i = 0; i < a->items.size(); ++i) {
    EXPECT_EQ(a->items[i].index, b->items[i].index);
    EXPECT_DOUBLE_EQ(a->items[i].estimate, b->items[i].estimate);
  }
}

TEST(SwopeTopKMiTest, TinyTableMatchesExactRanking) {
  const Table table = MakeMiTable({0.0, 0.9, 0.4}, 80, 8);
  auto result = SwopeTopKMi(table, 0, 1);
  ASSERT_TRUE(result.ok());
  auto exact = ExactMutualInformations(table, 0);
  ASSERT_TRUE(exact.ok());
  size_t best = 1;
  for (size_t j = 2; j < table.num_columns(); ++j) {
    if ((*exact)[j] > (*exact)[best]) best = j;
  }
  EXPECT_EQ(result->items[0].index, best);
}

// A query that scans every row has exact marginals and a zero-width
// joint interval, so each estimate is the exact MI: Exact*'s, up to the
// rounding of its plain double joint sum (the scorer's is fixed point).
TEST(SwopeTopKMiTest, ExhaustedEstimatesEqualExactMi) {
  const Table table = MakeMiTable({0.9, 0.6, 0.3, 0.1, 0.0}, 6000, 21);
  auto exact = ExactMutualInformations(table, 0);
  ASSERT_TRUE(exact.ok());
  QueryOptions options;
  options.initial_sample_size = table.num_rows();  // one round at M = N
  auto result = SwopeTopKMi(table, 0, table.num_columns() - 1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.exhausted_dataset);
  ASSERT_EQ(result->items.size(), table.num_columns() - 1);
  for (const AttributeScore& item : result->items) {
    EXPECT_NEAR(item.estimate, (*exact)[item.index], 1e-12)
        << "column " << item.index;
    EXPECT_EQ(item.lower, item.upper) << "column " << item.index;
  }
}

TEST(SwopeTopKMiTest, StatsCountJointWork) {
  const Table table = MakeMiTable({0.3, 0.7}, 20000, 9);
  auto result = SwopeTopKMi(table, 0, 1);
  ASSERT_TRUE(result.ok());
  // Each sampled row costs 1 (target) + 2 per active candidate.
  EXPECT_GE(result->stats.cells_scanned, result->stats.final_sample_size);
  EXPECT_GT(result->stats.iterations, 0u);
}

TEST(SwopeTopKMiTest, SatisfiesDefinitionFive) {
  const Table table =
      MakeMiTable({0.9, 0.85, 0.5, 0.2, 0.05, 0.0}, 50000, 10);
  auto exact = ExactMutualInformations(table, 0);
  ASSERT_TRUE(exact.ok());
  QueryOptions options;
  options.epsilon = 0.5;
  for (size_t k : {1, 2, 3}) {
    auto result = SwopeTopKMi(table, 0, k, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(SatisfiesApproxTopK(
        result->items, *exact, AllIndicesExcept(table.num_columns(), 0), k,
        options.epsilon))
        << "k=" << k;
  }
}

TEST(SwopeTopKMiTest, TwoColumnTable) {
  // h = 2: exactly one candidate; it is the answer for any k.
  CorrelatedPairSpec spec;
  spec.x_dist = CategoricalDistribution::Uniform(8);
  spec.y_noise = CategoricalDistribution::Uniform(8);
  spec.rho = 0.7;
  auto pair = GenerateCorrelatedPair(spec, 20000, 12);
  ASSERT_TRUE(pair.ok());
  auto table = Table::Make({pair->first, pair->second});
  ASSERT_TRUE(table.ok());
  auto result = SwopeTopKMi(*table, 0, 5);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->items.size(), 1u);
  EXPECT_EQ(result->items[0].index, 1u);
}

TEST(SwopeTopKMiTest, SequentialSamplingSatisfiesDefinition) {
  const Table table = MakeMiTable({0.9, 0.6, 0.2, 0.0}, 40000, 13);
  auto exact = ExactMutualInformations(table, 0);
  ASSERT_TRUE(exact.ok());
  QueryOptions options;
  options.epsilon = 0.5;
  options.sequential_sampling = true;
  auto result = SwopeTopKMi(table, 0, 2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SatisfiesApproxTopK(result->items, *exact,
                                  AllIndicesExcept(table.num_columns(), 0),
                                  2, options.epsilon));
}

TEST(SwopeTopKMiTest, SparseJointPathWorks) {
  // Force hashing by shrinking the dense limit.
  const Table table = MakeMiTable({0.8, 0.1}, 20000, 11, /*target_support=*/64);
  QueryOptions dense;
  QueryOptions sparse;
  sparse.dense_pair_limit = 1;
  auto dense_result = SwopeTopKMi(table, 0, 1, dense);
  auto sparse_result = SwopeTopKMi(table, 0, 1, sparse);
  ASSERT_TRUE(dense_result.ok());
  ASSERT_TRUE(sparse_result.ok());
  EXPECT_EQ(dense_result->items[0].index, sparse_result->items[0].index);
  EXPECT_DOUBLE_EQ(dense_result->items[0].estimate,
                   sparse_result->items[0].estimate);
}

}  // namespace
}  // namespace swope
