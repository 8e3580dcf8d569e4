#include "src/core/entropy.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/math.h"
#include "src/datagen/generator.h"

namespace swope {
namespace {

Column Col(const std::string& name, uint32_t support,
           std::vector<ValueCode> codes) {
  auto column = Column::Make(name, support, std::move(codes));
  EXPECT_TRUE(column.ok());
  return std::move(column).value();
}

TEST(EntropyTest, UniformColumn) {
  EXPECT_NEAR(ExactEntropy(Col("x", 4, {0, 1, 2, 3, 0, 1, 2, 3})), 2.0,
              1e-12);
}

TEST(EntropyTest, ConstantColumnIsZero) {
  EXPECT_EQ(ExactEntropy(Col("x", 1, {0, 0, 0, 0})), 0.0);
}

TEST(EntropyTest, EmptyColumnIsZero) {
  EXPECT_EQ(ExactEntropy(Col("x", 0, {})), 0.0);
}

TEST(EntropyTest, BiasedBinaryMatchesFormula) {
  // 3 ones out of 4: H = h(0.25).
  EXPECT_NEAR(ExactEntropy(Col("x", 2, {1, 1, 1, 0})), BinaryEntropy(0.25),
              1e-12);
}

TEST(EntropyTest, JointEntropyIndependentUniform) {
  // a cycles 0101..., b cycles 0011... over 4 rows -> joint uniform on 4
  // combos.
  const Column a = Col("a", 2, {0, 1, 0, 1});
  const Column b = Col("b", 2, {0, 0, 1, 1});
  auto joint = ExactJointEntropy(a, b);
  ASSERT_TRUE(joint.ok());
  EXPECT_NEAR(*joint, 2.0, 1e-12);
}

TEST(EntropyTest, JointEntropyIdenticalColumnsEqualsMarginal) {
  const Column a = Col("a", 3, {0, 1, 2, 0, 1, 2, 0});
  auto joint = ExactJointEntropy(a, a);
  ASSERT_TRUE(joint.ok());
  EXPECT_NEAR(*joint, ExactEntropy(a), 1e-12);
}

TEST(EntropyTest, JointEntropyRejectsSizeMismatch) {
  const Column a = Col("a", 2, {0, 1});
  const Column b = Col("b", 2, {0});
  EXPECT_TRUE(ExactJointEntropy(a, b).status().IsInvalidArgument());
}

TEST(EntropyTest, MutualInformationIdenticalEqualsEntropy) {
  const Column a = Col("a", 4, {0, 1, 2, 3, 0, 1, 2, 3});
  auto mi = ExactMutualInformation(a, a);
  ASSERT_TRUE(mi.ok());
  EXPECT_NEAR(*mi, 2.0, 1e-12);
}

TEST(EntropyTest, MutualInformationIndependentIsZero) {
  const Column a = Col("a", 2, {0, 1, 0, 1});
  const Column b = Col("b", 2, {0, 0, 1, 1});
  auto mi = ExactMutualInformation(a, b);
  ASSERT_TRUE(mi.ok());
  EXPECT_NEAR(*mi, 0.0, 1e-12);
}

TEST(EntropyTest, MutualInformationIsSymmetric) {
  const Column a = Col("a", 3, {0, 1, 2, 0, 1, 0, 2, 1});
  const Column b = Col("b", 2, {0, 1, 1, 0, 0, 1, 1, 0});
  auto ab = ExactMutualInformation(a, b);
  auto ba = ExactMutualInformation(b, a);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_NEAR(*ab, *ba, 1e-12);
}

TEST(EntropyTest, MutualInformationBoundedByMinEntropy) {
  auto a = GenerateColumn(ColumnSpec::Zipf("a", 16, 1.0), 20000, 1);
  auto b = GenerateColumn(ColumnSpec::Uniform("b", 4), 20000, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto mi = ExactMutualInformation(*a, *b);
  ASSERT_TRUE(mi.ok());
  EXPECT_GE(*mi, 0.0);
  EXPECT_LE(*mi, std::min(ExactEntropy(*a), ExactEntropy(*b)) + 1e-9);
}

TEST(EntropyTest, DenseAndSparseJointPathsAgree) {
  // Force the sparse path with large supports; compare against a dense
  // recomputation on remapped small-support copies of the same data.
  auto a_small = GenerateColumn(ColumnSpec::Uniform("a", 7), 5000, 3);
  auto b_small = GenerateColumn(ColumnSpec::Uniform("b", 5), 5000, 4);
  ASSERT_TRUE(a_small.ok());
  ASSERT_TRUE(b_small.ok());
  // Same codes, but declared support blows past the dense limit: the
  // sparse hash path must produce the identical entropy.
  auto a_big = Column::Make("a", 3000, a_small->codes());
  auto b_big = Column::Make("b", 3000, b_small->codes());
  ASSERT_TRUE(a_big.ok());
  ASSERT_TRUE(b_big.ok());
  auto dense = ExactJointEntropy(*a_small, *b_small);
  auto sparse = ExactJointEntropy(*a_big, *b_big);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  EXPECT_NEAR(*dense, *sparse, 1e-12);
}

TEST(EntropyTest, ExactEntropiesCoversAllColumns) {
  TableSpec spec;
  spec.num_rows = 4000;
  spec.seed = 5;
  spec.columns = {ColumnSpec::Uniform("a", 2), ColumnSpec::Uniform("b", 16),
                  ColumnSpec::EntropyTargeted("c", 32, 1.0)};
  auto table = GenerateTable(spec);
  ASSERT_TRUE(table.ok());
  const auto entropies = ExactEntropies(*table);
  ASSERT_EQ(entropies.size(), 3u);
  EXPECT_NEAR(entropies[0], 1.0, 0.05);
  EXPECT_NEAR(entropies[1], 4.0, 0.05);
  EXPECT_NEAR(entropies[2], 1.0, 0.1);
}

TEST(EntropyTest, ExactMutualInformationsTargetSlotIsZero) {
  TableSpec spec;
  spec.num_rows = 1000;
  spec.seed = 6;
  spec.columns = {ColumnSpec::Uniform("a", 4), ColumnSpec::Uniform("b", 4),
                  ColumnSpec::Uniform("c", 4)};
  auto table = GenerateTable(spec);
  ASSERT_TRUE(table.ok());
  auto mis = ExactMutualInformations(*table, 1);
  ASSERT_TRUE(mis.ok());
  EXPECT_EQ((*mis)[1], 0.0);
  EXPECT_TRUE(ExactMutualInformations(*table, 9).status().IsInvalidArgument());
}

}  // namespace
}  // namespace swope
