#include "src/core/sampling_baselines.h"

#include <gtest/gtest.h>

#include "src/core/entropy.h"
#include "src/core/swope_filter_entropy.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;

TEST(EntropyFilterTest, ReturnsExactAnswer) {
  const Table table =
      MakeEntropyTable({0.5, 1.5, 2.5, 3.5, 4.5}, 30000, 1);
  const auto scores = ExactEntropies(table);
  for (double eta : {1.0, 2.0, 3.0, 4.0}) {
    auto result = EntropyFilterQuery(table, eta);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t j = 0; j < scores.size(); ++j) {
      EXPECT_EQ(result->Contains(j), scores[j] >= eta)
          << "eta=" << eta << " j=" << j;
    }
  }
}

TEST(EntropyFilterTest, RejectsBadArguments) {
  const Table table = MakeEntropyTable({1.0}, 100, 2);
  EXPECT_TRUE(EntropyFilterQuery(table, 0.0).status().IsInvalidArgument());
  auto empty = Table::Make({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(EntropyFilterQuery(*empty, 1.0).status().IsInvalidArgument());
}

TEST(EntropyFilterTest, ScoreAtThresholdForcesFullScan) {
  // delta = 0 for a score exactly at eta is only resolvable at M = N.
  // Build a column with an exactly computable entropy: uniform over 4
  // values, H = 2 exactly, by explicit code layout.
  std::vector<ValueCode> codes(20000);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<ValueCode>(i % 4);
  }
  auto exact_col = Column::Make("exact2bits", 4, std::move(codes));
  ASSERT_TRUE(exact_col.ok());
  auto noise =
      GenerateColumn(ColumnSpec::EntropyTargeted("n", 16, 0.5), 20000, 3);
  ASSERT_TRUE(noise.ok());
  std::vector<Column> columns;
  columns.push_back(std::move(exact_col).value());
  columns.push_back(std::move(noise).value());
  auto table = Table::Make(std::move(columns));
  ASSERT_TRUE(table.ok());

  auto result = EntropyFilterQuery(*table, 2.0);
  ASSERT_TRUE(result.ok());
  // delta = 0 is only resolvable once the bounds collapse at M = N.
  EXPECT_TRUE(result->stats.exhausted_dataset);
  // Whichever way the last-ulp rounding lands, the score at stake is
  // exactly 2 bits; if the column was accepted its estimate must say so.
  const double exact = ExactEntropy(table->column(0));
  EXPECT_NEAR(exact, 2.0, 1e-9);
  if (result->Contains(0)) {
    EXPECT_NEAR(result->items.front().estimate, 2.0, 1e-9);
  }
}

TEST(EntropyFilterTest, NarrowGapCostsMoreThanSwope) {
  const Table table =
      MakeEntropyTable({2.05, 1.95, 4.0, 0.5}, 150000, 4);
  QueryOptions options;
  options.epsilon = 0.1;
  auto swope = SwopeFilterEntropy(table, 2.0, options);
  auto baseline = EntropyFilterQuery(table, 2.0, options);
  ASSERT_TRUE(swope.ok());
  ASSERT_TRUE(baseline.ok());
  EXPECT_LE(swope->stats.final_sample_size,
            baseline->stats.final_sample_size);
  EXPECT_LT(swope->stats.cells_scanned, baseline->stats.cells_scanned);
}

TEST(EntropyFilterTest, EasyThresholdStopsEarly) {
  const Table table = MakeEntropyTable({5.5, 0.2}, 200000, 5);
  auto result = EntropyFilterQuery(table, 2.0);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->stats.final_sample_size, 200000u);
  EXPECT_TRUE(result->Contains(0));
  EXPECT_FALSE(result->Contains(1));
}

TEST(EntropyFilterTest, ItemsAscendingByIndex) {
  const Table table = MakeEntropyTable({3.0, 4.0, 3.5}, 20000, 6);
  auto result = EntropyFilterQuery(table, 1.0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->items.size(), 3u);
  for (size_t i = 1; i < result->items.size(); ++i) {
    EXPECT_LT(result->items[i - 1].index, result->items[i].index);
  }
}

}  // namespace
}  // namespace swope
