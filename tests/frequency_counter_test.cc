#include "src/core/frequency_counter.h"

#include <gtest/gtest.h>

#include "src/common/math.h"
#include "src/core/entropy.h"
#include "src/datagen/generator.h"
#include "src/table/column_view.h"
#include "src/table/shuffle.h"

namespace swope {
namespace {

TEST(FrequencyCounterTest, StartsEmpty) {
  FrequencyCounter counter(4);
  EXPECT_EQ(counter.sample_count(), 0u);
  EXPECT_EQ(counter.SampleEntropy(), 0.0);
}

TEST(FrequencyCounterTest, CountsValues) {
  FrequencyCounter counter(3);
  counter.Add(0);
  counter.Add(2);
  counter.Add(2);
  EXPECT_EQ(counter.sample_count(), 3u);
  EXPECT_EQ(counter.count(0), 1u);
  EXPECT_EQ(counter.count(1), 0u);
  EXPECT_EQ(counter.count(2), 2u);
}

TEST(FrequencyCounterTest, EntropyMatchesBatchFormula) {
  FrequencyCounter counter(4);
  const std::vector<ValueCode> values = {0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
  for (ValueCode v : values) counter.Add(v);
  EXPECT_NEAR(counter.SampleEntropy(),
              EntropyFromCounts({1, 2, 3, 4}, 10), 1e-12);
}

TEST(FrequencyCounterTest, SingleSampleEntropyIsZero) {
  FrequencyCounter counter(5);
  counter.Add(3);
  EXPECT_EQ(counter.SampleEntropy(), 0.0);
}

TEST(FrequencyCounterTest, UniformEntropyIsLog2U) {
  FrequencyCounter counter(8);
  for (int rep = 0; rep < 5; ++rep) {
    for (ValueCode v = 0; v < 8; ++v) counter.Add(v);
  }
  EXPECT_NEAR(counter.SampleEntropy(), 3.0, 1e-12);
}

TEST(FrequencyCounterTest, IncrementalMatchesRecomputeAtEveryStep) {
  auto column = GenerateColumn(ColumnSpec::Zipf("z", 12, 1.0), 300, 3);
  ASSERT_TRUE(column.ok());
  FrequencyCounter counter(12);
  std::vector<uint64_t> counts(12, 0);
  for (uint64_t r = 0; r < column->size(); ++r) {
    counter.Add(column->code(r));
    ++counts[column->code(r)];
    ASSERT_NEAR(counter.SampleEntropy(), EntropyFromCounts(counts, r + 1),
                1e-9)
        << "step " << r;
  }
}

TEST(FrequencyCounterTest, GatheredAddCodesMatchesManualAdds) {
  auto column = GenerateColumn(ColumnSpec::Uniform("u", 6), 1000, 5);
  ASSERT_TRUE(column.ok());
  const auto order = ShuffledRowOrder(1000, 11);
  const ColumnView view(*column);
  std::vector<ValueCode> scratch;

  FrequencyCounter batched(6);
  batched.AddCodes(view.Gather(order, 0, 400, scratch), 400);
  batched.AddCodes(view.Gather(order, 400, 1000, scratch), 600);

  FrequencyCounter manual(6);
  for (uint32_t i = 0; i < 1000; ++i) manual.Add(column->code(order[i]));

  EXPECT_EQ(batched.sample_count(), manual.sample_count());
  EXPECT_NEAR(batched.SampleEntropy(), manual.SampleEntropy(), 1e-12);
  for (uint32_t v = 0; v < 6; ++v) {
    EXPECT_EQ(batched.count(v), manual.count(v));
  }
}

TEST(FrequencyCounterTest, FullPrefixEqualsExactEntropy) {
  auto column = GenerateColumn(ColumnSpec::Geometric("g", 9, 0.3), 5000, 7);
  ASSERT_TRUE(column.ok());
  const auto order = ShuffledRowOrder(5000, 13);
  const ColumnView view(*column);
  std::vector<ValueCode> scratch;
  FrequencyCounter counter(9);
  counter.AddCodes(view.Gather(order, 0, 5000, scratch), 5000);
  EXPECT_NEAR(counter.SampleEntropy(), ExactEntropy(*column), 1e-9);
}

}  // namespace
}  // namespace swope
