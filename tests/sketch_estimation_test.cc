// Sketch-path estimation tests: the UsesSketchPath policy, the exact
// path's explicit high-support rejection, the bias-corrected entropy
// band, and the hybrid scorers end to end (sketched and exact candidates
// in one query, deterministic reruns).

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/entropy.h"
#include "src/core/sketch_estimation.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/table/column.h"
#include "src/table/table.h"

namespace swope {
namespace {

// support `u` uniform codes over `rows` rows (exact entropy log2(u) when
// u divides rows).
Column UniformColumn(const std::string& name, uint32_t u, uint64_t rows) {
  std::vector<ValueCode> codes(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    codes[i] = static_cast<ValueCode>(i % u);
  }
  return Column::FromCodes(name, std::move(codes));
}

Table MakeHybridTable(uint32_t high_support, uint64_t rows) {
  std::vector<Column> columns;
  columns.push_back(UniformColumn("hc", high_support, rows));
  columns.push_back(UniformColumn("ctl", 8, rows));
  auto table = Table::Make(std::move(columns));
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

TEST(SketchEstimationTest, UsesSketchPathPolicy) {
  QueryOptions options;  // sketch_epsilon = 0, threshold = 1000
  EXPECT_FALSE(UsesSketchPath(500, options));
  EXPECT_FALSE(UsesSketchPath(5000, options));  // disabled, not routed
  options.sketch_epsilon = 0.01;
  EXPECT_FALSE(UsesSketchPath(1000, options));  // at threshold: exact
  EXPECT_TRUE(UsesSketchPath(1001, options));
  options.sketch_threshold = 100;
  EXPECT_TRUE(UsesSketchPath(101, options));
  EXPECT_FALSE(UsesSketchPath(100, options));
}

TEST(SketchEstimationTest, HighSupportIsRejectedWithoutSketches) {
  const Table table = MakeHybridTable(4096, 8192);
  QueryOptions options;
  options.epsilon = 0.1;

  const Status direct = ValidateColumnSupports(table, options);
  EXPECT_TRUE(direct.IsInvalidArgument());
  EXPECT_NE(direct.message().find("'hc'"), std::string::npos)
      << direct.message();
  EXPECT_NE(direct.message().find("4096"), std::string::npos);

  const auto query = SwopeTopKEntropy(table, 2, options);
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(query.status().IsInvalidArgument());
  EXPECT_NE(query.status().message().find("'hc'"), std::string::npos);

  // Raising the threshold admits the column on the exact path.
  options.sketch_threshold = 5000;
  EXPECT_TRUE(ValidateColumnSupports(table, options).ok());
  // So does enabling the sketch path.
  options.sketch_threshold = 1000;
  options.sketch_epsilon = 0.01;
  EXPECT_TRUE(ValidateColumnSupports(table, options).ok());
}

TEST(SketchEstimationTest, EntropyBandBracketsSmallSupportExactly) {
  // With support below the heavy capacity every value is tracked, so the
  // band collapses around the exact sample entropy.
  QueryOptions options;
  options.sketch_epsilon = 0.005;
  auto provider = MakeQuerySketchProvider(options, /*seed_salt=*/0,
                                          kSketchHeavyCapacity);
  ASSERT_TRUE(provider.ok()) << provider.status().ToString();

  const Column column = UniformColumn("c", 64, 64 * 256);
  std::vector<ValueCode> codes = column.codes();
  provider->AddCodes(codes.data(), codes.size());

  const SketchEntropyEstimate band =
      EstimateSketchEntropy(provider->Summarize(), column.support());
  const double exact = ExactEntropy(column);  // 6 bits
  // The band is a bias-corrected heuristic, not a proven bracket: the
  // collision-noise correction assumes worst-case spreading, so under
  // conservative update it can overshoot by a hair. Allow 0.1 bits.
  EXPECT_LE(band.lower, exact + 0.1);
  EXPECT_GE(band.upper, exact - 0.1);
  EXPECT_NEAR(band.estimate, exact, 0.1);
}

TEST(SketchEstimationTest, HybridTopKEntropyRoutesAndBrackets) {
  const Table table = MakeHybridTable(4096, 4096 * 6);
  QueryOptions options;
  options.epsilon = 0.1;
  options.sketch_epsilon = 0.01;

  auto result = SwopeTopKEntropy(table, 2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.sketch_candidates, 1u);
  ASSERT_EQ(result->items.size(), 2u);

  for (const AttributeScore& item : result->items) {
    const Column& column = table.column(item.index);
    const double exact = ExactEntropy(column);
    // Sketched intervals are heuristic bands (see
    // EntropyBandBracketsSmallSupportExactly); 0.3 bits of slack on a
    // 12-bit column keeps the check meaningful without overpromising.
    EXPECT_LE(item.lower, exact + 0.3) << column.name();
    EXPECT_GE(item.upper, exact - 0.3) << column.name();
    if (column.name() == "ctl") {
      // The control column stays on the exact path and keeps the paper's
      // additive guarantee.
      EXPECT_EQ(item.index, 1u);
      EXPECT_NEAR(item.estimate, exact, options.epsilon);
    }
  }
  // The high-entropy sketched column must still rank first.
  EXPECT_EQ(result->items[0].index, 0u);
}

TEST(SketchEstimationTest, SketchQueriesAreDeterministic) {
  const Table table = MakeHybridTable(2048, 2048 * 8);
  QueryOptions options;
  options.epsilon = 0.1;
  options.sketch_epsilon = 0.02;
  options.seed = 99;

  auto first = SwopeTopKEntropy(table, 2, options);
  auto second = SwopeTopKEntropy(table, 2, options);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->items.size(), second->items.size());
  for (size_t i = 0; i < first->items.size(); ++i) {
    EXPECT_EQ(first->items[i].index, second->items[i].index);
    EXPECT_DOUBLE_EQ(first->items[i].estimate, second->items[i].estimate);
    EXPECT_DOUBLE_EQ(first->items[i].lower, second->items[i].lower);
    EXPECT_DOUBLE_EQ(first->items[i].upper, second->items[i].upper);
  }
}

TEST(SketchEstimationTest, MiWithSketchedCandidateRuns) {
  const uint64_t rows = 4096 * 4;
  std::vector<Column> columns;
  columns.push_back(UniformColumn("t", 16, rows));
  // Perfectly informative high-cardinality candidate: its value
  // determines the target's.
  columns.push_back(UniformColumn("hc", 4096, rows));
  columns.push_back(UniformColumn("noise", 8, rows));
  auto made = Table::Make(std::move(columns));
  ASSERT_TRUE(made.ok());
  const Table table = std::move(made).value();

  QueryOptions options;
  options.epsilon = 0.5;
  options.sketch_epsilon = 0.01;
  auto result = SwopeTopKMi(table, /*target=*/0, 2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.sketch_candidates, 1u);
  ASSERT_EQ(result->items.size(), 2u);
  for (const AttributeScore& item : result->items) {
    EXPECT_TRUE(std::isfinite(item.estimate));
    EXPECT_GE(item.upper + 1e-9, item.lower);
  }
}

TEST(SketchEstimationTest, MiWithSketchedTargetCountsExactMarginals) {
  // A sketched target routes every joint through a sketch, while the
  // exact candidates enter with their exact marginal entropies. i % 16
  // and i % 8 are functions of i % 4096, so they carry 4 and 3 bits
  // about the target; i % 3 carries almost none.
  const uint64_t rows = 4096 * 4;
  std::vector<Column> columns;
  columns.push_back(UniformColumn("hc", 4096, rows));
  columns.push_back(UniformColumn("mod3", 3, rows));
  columns.push_back(UniformColumn("mod16", 16, rows));
  columns.push_back(UniformColumn("mod8", 8, rows));
  auto made = Table::Make(std::move(columns));
  ASSERT_TRUE(made.ok());
  const Table table = std::move(made).value();

  QueryOptions options;
  options.epsilon = 0.5;
  options.sketch_epsilon = 0.01;
  auto result = SwopeTopKMi(table, /*target=*/0, 1, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.sketch_candidates, 3u);
  ASSERT_EQ(result->items.size(), 1u);
  EXPECT_EQ(result->items[0].name, "mod16");
  EXPECT_TRUE(std::isfinite(result->items[0].estimate));
  EXPECT_GE(result->items[0].upper + 1e-9, result->items[0].lower);
}

}  // namespace
}  // namespace swope
