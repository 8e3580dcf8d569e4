#include "src/core/pair_counter.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/entropy.h"
#include "src/datagen/generator.h"
#include "src/table/column_view.h"
#include "src/table/shuffle.h"

namespace swope {
namespace {

TEST(PairCounterTest, SelectsDenseForSmallProduct) {
  PairCounter small(10, 10, 1000);
  EXPECT_TRUE(small.is_dense());
  PairCounter big(100, 100, 1000);
  EXPECT_FALSE(big.is_dense());
}

TEST(PairCounterTest, MigratesSparseToDenseUnderLoad) {
  // 128*128 = 16384 cells > kImmediateDenseCells, so the counter starts
  // sparse; filling an eighth of the domain triggers migration, and all
  // statistics must survive it.
  PairCounter counter(128, 128, /*dense_limit=*/1 << 20);
  ASSERT_FALSE(counter.is_dense());
  Rng rng(5);
  std::vector<std::pair<ValueCode, ValueCode>> added;
  for (int i = 0; i < 8000; ++i) {
    const auto a = static_cast<ValueCode>(rng.UniformU64(128));
    const auto b = static_cast<ValueCode>(rng.UniformU64(128));
    counter.Add(a, b);
    added.emplace_back(a, b);
  }
  EXPECT_TRUE(counter.is_dense());
  EXPECT_EQ(counter.sample_count(), 8000u);

  // Replay into a never-migrating counter and compare.
  PairCounter reference(128, 128, /*dense_limit=*/1);
  for (const auto& [a, b] : added) reference.Add(a, b);
  ASSERT_FALSE(reference.is_dense());
  EXPECT_EQ(reference.sample_count(), 8000u);
  // The entropy pass sums in fixed point, so the layouts agree bitwise.
  EXPECT_EQ(counter.SampleJointEntropy(), reference.SampleJointEntropy());
  for (uint32_t a = 0; a < 128; a += 13) {
    for (uint32_t b = 0; b < 128; b += 11) {
      EXPECT_EQ(counter.count(a, b), reference.count(a, b));
    }
  }
}

TEST(PairCounterTest, CountsPairs) {
  PairCounter counter(3, 3);
  counter.Add(0, 1);
  counter.Add(0, 1);
  counter.Add(2, 2);
  EXPECT_EQ(counter.sample_count(), 3u);
  EXPECT_EQ(counter.count(0, 1), 2u);
  EXPECT_EQ(counter.count(2, 2), 1u);
  EXPECT_EQ(counter.count(1, 1), 0u);
}

TEST(PairCounterTest, JointEntropyUniformPairs) {
  PairCounter counter(2, 2);
  counter.Add(0, 0);
  counter.Add(0, 1);
  counter.Add(1, 0);
  counter.Add(1, 1);
  EXPECT_NEAR(counter.SampleJointEntropy(), 2.0, 1e-12);
}

TEST(PairCounterTest, EmptyEntropyIsZero) {
  PairCounter counter(4, 4);
  EXPECT_EQ(counter.SampleJointEntropy(), 0.0);
}

TEST(PairCounterTest, DenseAndSparseAgree) {
  auto a = GenerateColumn(ColumnSpec::Uniform("a", 6), 3000, 1);
  auto b = GenerateColumn(ColumnSpec::Zipf("b", 9, 1.0), 3000, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  PairCounter dense(6, 9, /*dense_limit=*/1000);
  PairCounter sparse(6, 9, /*dense_limit=*/1);
  ASSERT_TRUE(dense.is_dense());
  ASSERT_FALSE(sparse.is_dense());

  for (uint64_t r = 0; r < 3000; ++r) {
    dense.Add(a->code(r), b->code(r));
    sparse.Add(a->code(r), b->code(r));
  }
  EXPECT_EQ(dense.sample_count(), sparse.sample_count());
  EXPECT_EQ(dense.SampleJointEntropy(), sparse.SampleJointEntropy());
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 9; ++j) {
      EXPECT_EQ(dense.count(i, j), sparse.count(i, j));
    }
  }
}

TEST(PairCounterTest, FullScanMatchesExactJointEntropy) {
  auto a = GenerateColumn(ColumnSpec::Uniform("a", 5), 8000, 3);
  auto b = GenerateColumn(ColumnSpec::Geometric("b", 7, 0.4), 8000, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto order = ShuffledRowOrder(8000, 5);

  std::vector<ValueCode> sa;
  std::vector<ValueCode> sb;
  PairCounter counter(5, 7);
  counter.AddCodes(ColumnView(*a).Gather(order, 0, 8000, sa),
                   ColumnView(*b).Gather(order, 0, 8000, sb), 8000);
  auto exact = ExactJointEntropy(*a, *b);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(counter.SampleJointEntropy(), *exact, 1e-9);
}

TEST(PairCounterTest, AddCodesInBatchesMatchesOneShot) {
  auto a = GenerateColumn(ColumnSpec::Uniform("a", 4), 2000, 6);
  auto b = GenerateColumn(ColumnSpec::Uniform("b", 4), 2000, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto order = ShuffledRowOrder(2000, 8);
  const ColumnView view_a(*a);
  const ColumnView view_b(*b);
  std::vector<ValueCode> sa;
  std::vector<ValueCode> sb;

  PairCounter batched(4, 4);
  batched.AddCodes(view_a.Gather(order, 0, 500, sa),
                   view_b.Gather(order, 0, 500, sb), 500);
  batched.AddCodes(view_a.Gather(order, 500, 1300, sa),
                   view_b.Gather(order, 500, 1300, sb), 800);
  batched.AddCodes(view_a.Gather(order, 1300, 2000, sa),
                   view_b.Gather(order, 1300, 2000, sb), 700);

  PairCounter oneshot(4, 4);
  oneshot.AddCodes(view_a.Gather(order, 0, 2000, sa),
                   view_b.Gather(order, 0, 2000, sb), 2000);

  EXPECT_EQ(batched.sample_count(), oneshot.sample_count());
  EXPECT_EQ(batched.SampleJointEntropy(), oneshot.SampleJointEntropy());
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      EXPECT_EQ(batched.count(i, j), oneshot.count(i, j));
    }
  }
}

TEST(PairCounterTest, JointEntropyIgnoresInsertionOrder) {
  // Linear probing places colliding keys by arrival, so two hashed
  // counters fed the same pairs in opposite orders visit their slots in
  // different orders, and a migrated counter visits them in key order;
  // the fixed-point sum must not notice. The 70x60 domain starts hashed
  // and migrates; skewed codes make the counts span several magnitudes,
  // so a floating-point sum would round differently across orders.
  constexpr uint64_t kRows = 30000;
  std::vector<ValueCode> a(kRows);
  std::vector<ValueCode> b(kRows);
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(31 + seed);
    for (uint64_t i = 0; i < kRows; ++i) {
      a[i] = static_cast<ValueCode>(rng.UniformU64(1 + rng.UniformU64(70)));
      b[i] = static_cast<ValueCode>(rng.UniformU64(1 + rng.UniformU64(60)));
    }
    PairCounter forward(70, 60, /*dense_limit=*/1);
    forward.AddCodes(a.data(), b.data(), kRows);
    PairCounter backward(70, 60, /*dense_limit=*/1);
    for (uint64_t i = kRows; i-- > 0;) backward.Add(a[i], b[i]);
    PairCounter migrated(70, 60, /*dense_limit=*/1ULL << 20);
    migrated.AddCodes(a.data(), b.data(), kRows);
    ASSERT_FALSE(forward.is_dense());
    ASSERT_FALSE(backward.is_dense());
    ASSERT_TRUE(migrated.is_dense());
    EXPECT_EQ(forward.SampleJointEntropy(), backward.SampleJointEntropy())
        << "seed " << seed;
    EXPECT_EQ(forward.SampleJointEntropy(), migrated.SampleJointEntropy())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace swope
