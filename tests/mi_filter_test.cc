#include "src/core/sampling_baselines.h"

#include <gtest/gtest.h>

#include "src/core/entropy.h"
#include "src/core/swope_filter_mi.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeMiTable;

TEST(MiFilterTest, ReturnsExactAnswer) {
  const Table table = MakeMiTable({0.9, 0.6, 0.3, 0.0}, 30000, 1);
  auto scores = ExactMutualInformations(table, 0);
  ASSERT_TRUE(scores.ok());
  for (double eta : {0.1, 0.3, 0.5}) {
    auto result = MiFilterQuery(table, 0, eta);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t j = 1; j < table.num_columns(); ++j) {
      EXPECT_EQ(result->Contains(j), (*scores)[j] >= eta)
          << "eta=" << eta << " j=" << j;
    }
  }
}

TEST(MiFilterTest, RejectsBadArguments) {
  const Table table = MakeMiTable({0.5}, 100, 2);
  EXPECT_TRUE(MiFilterQuery(table, 0, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(MiFilterQuery(table, 9, 0.1).status().IsInvalidArgument());
}

TEST(MiFilterTest, NarrowGapCostsMoreThanSwope) {
  // Scores straddling eta = 0.3 closely.
  const Table table = MakeMiTable({0.42, 0.38, 0.9, 0.0}, 100000, 3);
  QueryOptions options;
  options.epsilon = 0.5;
  auto swope = SwopeFilterMi(table, 0, 0.3, options);
  auto baseline = MiFilterQuery(table, 0, 0.3, options);
  ASSERT_TRUE(swope.ok());
  ASSERT_TRUE(baseline.ok());
  EXPECT_LE(swope->stats.final_sample_size,
            baseline->stats.final_sample_size);
}

TEST(MiFilterTest, DeterministicInSeed) {
  const Table table = MakeMiTable({0.7, 0.2}, 20000, 4);
  QueryOptions options;
  options.seed = 33;
  auto a = MiFilterQuery(table, 0, 0.2, options);
  auto b = MiFilterQuery(table, 0, 0.2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->items.size(), b->items.size());
}

TEST(MiFilterTest, TargetExcluded) {
  const Table table = MakeMiTable({0.9, 0.9}, 10000, 5);
  auto result = MiFilterQuery(table, 0, 0.01);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->Contains(0));
}

}  // namespace
}  // namespace swope
