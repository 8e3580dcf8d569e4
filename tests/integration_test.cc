// End-to-end flows across modules: generate -> CSV -> parse -> prune ->
// query -> compare against exact; plus the binary format on the same path.

#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "src/baselines/exact.h"
#include "src/core/entropy.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/datagen/dataset_presets.h"
#include "src/eval/accuracy.h"
#include "src/table/binary_io.h"
#include "src/table/csv_reader.h"
#include "src/table/csv_writer.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::AllIndices;
using test::MakeEntropyTable;

TEST(IntegrationTest, CsvRoundTripPreservesQueryAnswers) {
  const Table original = MakeEntropyTable({0.5, 4.5, 2.0, 3.8}, 5000, 1);

  std::ostringstream csv;
  ASSERT_TRUE(WriteCsv(original, csv).ok());
  std::istringstream input(csv.str());
  auto parsed = ReadCsv(input);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Dictionary codes may be renumbered, but entropies are invariant.
  const auto before = ExactEntropies(original);
  const auto after = ExactEntropies(*parsed);
  ASSERT_EQ(before.size(), after.size());
  for (size_t j = 0; j < before.size(); ++j) {
    EXPECT_NEAR(before[j], after[j], 1e-9) << j;
  }

  auto exact = ExactTopKEntropy(*parsed, 2);
  auto approx = SwopeTopKEntropy(*parsed, 2);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->items[0].index, exact->items[0].index);
}

TEST(IntegrationTest, BinaryRoundTripPreservesQueries) {
  auto table = MakePresetTable(DatasetPreset::kCdc, 8000, 2);
  ASSERT_TRUE(table.ok());
  const std::string path = testing::TempDir() + "/swope_integration.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(*table, path).ok());
  auto loaded = ReadBinaryTableFile(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  auto before = SwopeTopKEntropy(*table, 4);
  auto after = SwopeTopKEntropy(*loaded, 4);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->items.size(), after->items.size());
  for (size_t i = 0; i < before->items.size(); ++i) {
    EXPECT_EQ(before->items[i].index, after->items[i].index);
    EXPECT_DOUBLE_EQ(before->items[i].estimate, after->items[i].estimate);
  }
}

TEST(IntegrationTest, PresetPipelineTopKAgainstExact) {
  auto table = MakePresetTable(DatasetPreset::kEnem, 20000, 3);
  ASSERT_TRUE(table.ok());
  const Table pruned = table->DropHighSupportColumns(1000);
  const auto exact_scores = ExactEntropies(pruned);

  QueryOptions options;
  options.epsilon = 0.1;  // paper default for entropy top-k
  auto swope = SwopeTopKEntropy(pruned, 4, options);
  auto rank = EntropyRankTopK(pruned, 4, options);
  ASSERT_TRUE(swope.ok());
  ASSERT_TRUE(rank.ok());

  const auto eligible = AllIndices(pruned.num_columns());
  EXPECT_DOUBLE_EQ(TopKAccuracy(rank->items, exact_scores, eligible, 4), 1.0);
  EXPECT_TRUE(SatisfiesApproxTopK(swope->items, exact_scores, eligible, 4,
                                  options.epsilon));
  EXPECT_LE(swope->stats.cells_scanned, rank->stats.cells_scanned);
}

TEST(IntegrationTest, PresetPipelineFilterAgainstExact) {
  auto table = MakePresetTable(DatasetPreset::kHus, 20000, 4);
  ASSERT_TRUE(table.ok());
  const auto exact_scores = ExactEntropies(*table);
  const double eta = 2.0;

  QueryOptions options;
  options.epsilon = 0.05;  // paper default for entropy filtering
  auto swope = SwopeFilterEntropy(*table, eta, options);
  auto baseline = EntropyFilterQuery(*table, eta, options);
  ASSERT_TRUE(swope.ok());
  ASSERT_TRUE(baseline.ok());

  const auto eligible = AllIndices(table->num_columns());
  EXPECT_DOUBLE_EQ(FilterAccuracy(*baseline, exact_scores, eligible, eta),
                   1.0);
  EXPECT_TRUE(
      SatisfiesApproxFilter(*swope, exact_scores, eligible, eta,
                            options.epsilon));
}

TEST(IntegrationTest, MiQueryOnPreset) {
  auto table = MakePresetTable(DatasetPreset::kCdc, 10000, 5);
  ASSERT_TRUE(table.ok());
  const size_t target = 7;
  auto exact = ExactMutualInformations(*table, target);
  ASSERT_TRUE(exact.ok());

  QueryOptions options;
  options.epsilon = 0.5;  // paper default for MI queries
  auto result = SwopeTopKMi(*table, target, 4, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SatisfiesApproxTopK(
      result->items, *exact,
      test::AllIndicesExcept(table->num_columns(), target), 4,
      options.epsilon));
}

TEST(IntegrationTest, SupportPruningMatchesPaperPreprocessing) {
  auto table = MakePresetTable(DatasetPreset::kPus, 2000, 6);
  ASSERT_TRUE(table.ok());
  const Table pruned = table->DropHighSupportColumns(1000);
  EXPECT_LE(pruned.MaxSupport(), 1000u);
  EXPECT_LE(pruned.num_columns(), table->num_columns());
  EXPECT_GT(pruned.num_columns(), 0u);
}

}  // namespace
}  // namespace swope
