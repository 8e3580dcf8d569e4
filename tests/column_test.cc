#include "src/table/column.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math.h"
#include "src/common/random.h"
#include "src/core/entropy.h"
#include "src/table/append.h"
#include "src/table/column_view.h"
#include "src/table/table.h"

namespace swope {
namespace {

TEST(ColumnTest, MakeValidColumn) {
  auto column = Column::Make("age", 3, {0, 1, 2, 1, 0});
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column->name(), "age");
  EXPECT_EQ(column->support(), 3u);
  EXPECT_EQ(column->size(), 5u);
  EXPECT_FALSE(column->empty());
  EXPECT_EQ(column->code(0), 0u);
  EXPECT_EQ(column->code(4), 0u);
}

TEST(ColumnTest, MakeRejectsCodeOutOfRange) {
  auto column = Column::Make("x", 2, {0, 1, 2});
  EXPECT_FALSE(column.ok());
  EXPECT_TRUE(column.status().IsInvalidArgument());
}

TEST(ColumnTest, MakeRejectsZeroSupportWithCodes) {
  auto column = Column::Make("x", 0, {0});
  EXPECT_FALSE(column.ok());
}

TEST(ColumnTest, MakeAllowsEmptyColumn) {
  auto column = Column::Make("x", 0, {});
  ASSERT_TRUE(column.ok());
  EXPECT_TRUE(column->empty());
  EXPECT_EQ(column->support(), 0u);
}

TEST(ColumnTest, MakeRejectsLabelCountMismatch) {
  auto column = Column::Make("x", 3, {0, 1}, {"a", "b"});
  EXPECT_FALSE(column.ok());
  EXPECT_TRUE(column.status().IsInvalidArgument());
}

TEST(ColumnTest, LabelsRoundTrip) {
  auto column = Column::Make("color", 2, {1, 0}, {"red", "blue"});
  ASSERT_TRUE(column.ok());
  EXPECT_TRUE(column->has_labels());
  EXPECT_EQ(column->LabelOf(0), "red");
  EXPECT_EQ(column->LabelOf(1), "blue");
}

TEST(ColumnTest, LabelOfFallsBackToCode) {
  auto column = Column::Make("x", 3, {0, 1, 2});
  ASSERT_TRUE(column.ok());
  EXPECT_FALSE(column->has_labels());
  EXPECT_EQ(column->LabelOf(2), "2");
}

TEST(ColumnTest, FromCodesInfersSupport) {
  const Column column = Column::FromCodes("x", {4, 0, 2});
  EXPECT_EQ(column.support(), 5u);
  EXPECT_EQ(column.size(), 3u);
}

TEST(ColumnTest, FromCodesEmpty) {
  const Column column = Column::FromCodes("x", {});
  EXPECT_EQ(column.support(), 0u);
  EXPECT_TRUE(column.empty());
}

TEST(ColumnTest, StoresCodesBitPacked) {
  // Support 3 -> 2 bits per value; 100 values fit in 4 payload words
  // (plus one padding word) instead of 400 unpacked bytes.
  std::vector<ValueCode> codes(100);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<ValueCode>(i % 3);
  }
  auto column = Column::Make("p", 3, codes);
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column->packed().width(), 2u);
  EXPECT_EQ(column->packed().num_data_words(), 4u);
  EXPECT_LT(column->MemoryBytes(), 100 * sizeof(ValueCode));
  EXPECT_EQ(column->codes(), codes);
}

TEST(ColumnTest, ConstantColumnPacksToWidthZero) {
  auto column = Column::Make("c", 1, std::vector<ValueCode>(5000, 0));
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column->packed().width(), 0u);
  EXPECT_EQ(column->packed().num_data_words(), 0u);
  EXPECT_EQ(column->code(4999), 0u);
}

TEST(ColumnTest, FromPackedValidatesCodesAgainstSupport) {
  const PackedCodes good = PackedCodes::Pack({4, 1, 3, 0, 0}, 3);
  EXPECT_TRUE(Column::FromPacked("x", 5, good).ok());
  // Width 2 is canonical for support 3, but the payload can still encode
  // the out-of-dictionary value 3; FromPacked must reject it.
  const PackedCodes bad = PackedCodes::Pack({3, 1, 2, 0, 0}, 2);
  EXPECT_FALSE(Column::FromPacked("x", 3, bad).ok());
}

TEST(ColumnTest, FromPackedRejectsNonCanonicalWidth) {
  // Support 5 needs width 3; a payload packed wider must be rejected so
  // a column's resident size is a pure function of its logical content.
  const PackedCodes wide = PackedCodes::Pack({4, 1, 3, 0, 0}, 4);
  auto column = Column::FromPacked("x", 5, wide);
  EXPECT_FALSE(column.ok());
  EXPECT_TRUE(column.status().IsInvalidArgument());
}

TEST(ColumnTest, ViewGatherMatchesPerRowDecode) {
  auto column = Column::Make("v", 6, {5, 0, 3, 2, 1, 4, 5, 5, 0, 2});
  ASSERT_TRUE(column.ok());
  const ColumnView view(*column);
  EXPECT_EQ(view.size(), column->size());
  EXPECT_EQ(view.support(), column->support());
  const std::vector<uint32_t> order = {9, 0, 4, 4, 7, 2};
  std::vector<ValueCode> scratch;
  const ValueCode* gathered = view.Gather(order, 1, 6, scratch);
  for (size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(gathered[i - 1], column->code(order[i])) << "i=" << i;
  }
}

TEST(ColumnTest, MemoryBytesAccountsLabels) {
  auto plain = Column::Make("x", 2, {0, 1, 0, 1});
  auto labeled = Column::Make("x", 2, {0, 1, 0, 1}, {"off", "on"});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(labeled.ok());
  EXPECT_GT(labeled->MemoryBytes(), plain->MemoryBytes());
}

TEST(ColumnTest, ValueCountsSumToSize) {
  auto column = Column::Make("x", 4, {0, 1, 1, 3, 3, 3});
  ASSERT_TRUE(column.ok());
  const auto counts = column->ValueCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 3u);
  EXPECT_EQ(column->Entropy(), EntropyFromCounts(counts, 6));
}

// A column with `rows` codes of support 37, skewed towards code 0.
Column SkewedColumn(uint64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<ValueCode> codes(rows);
  for (ValueCode& code : codes) {
    code = static_cast<ValueCode>(rng.UniformU64(3) == 0 ? rng.UniformU64(37)
                                                         : 0);
  }
  return Column::Make("x", 37, std::move(codes)).value();
}

// Decode-and-count reference for the cached counts.
std::vector<uint64_t> ReferenceCounts(const Column& column) {
  std::vector<uint64_t> counts(column.support(), 0);
  for (ValueCode code : column.codes()) ++counts[code];
  return counts;
}

TEST(ColumnTest, CountsAreCachedAndSharedByCopies) {
  const Column column = SkewedColumn(5000, 1);
  const std::vector<uint64_t>& counts = column.ValueCounts();
  EXPECT_EQ(counts, ReferenceCounts(column));
  EXPECT_EQ(&column.ValueCounts(), &counts);  // computed once, kept
  const Column copy = column;
  EXPECT_EQ(&copy.ValueCounts(), &counts);
  const Column with_sketch = column.WithSketch(nullptr);
  EXPECT_EQ(&with_sketch.ValueCounts(), &counts);
  EXPECT_DOUBLE_EQ(column.Entropy(), ExactEntropy(column));
}

TEST(ColumnTest, AppendedColumnCountsItself) {
  // An append builds a new column; it must count its own codes, not
  // inherit the parent's counts.
  Table table = Table::Make({SkewedColumn(3000, 2)}).value();
  ASSERT_EQ(table.column(0).ValueCounts()[5],
            ReferenceCounts(table.column(0))[5]);
  auto appended = AppendRowsToTable(table, {{"5"}, {"5"}, {"36"}});
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  const Column& grown = appended->column(0);
  EXPECT_EQ(grown.ValueCounts(), ReferenceCounts(grown));
  EXPECT_EQ(grown.ValueCounts()[5], table.column(0).ValueCounts()[5] + 2);
}

// Concurrent first requests for a fresh column's counts must count once
// and hand every thread the same vector (CI runs this under TSan).
TEST(ColumnTest, ConcurrentFirstCountsAgree) {
  constexpr int kThreads = 8;
  const Column column = SkewedColumn(200000, 3);
  std::atomic<int> arrived{0};
  std::vector<const std::vector<uint64_t>*> seen(kThreads, nullptr);
  std::vector<double> entropies(kThreads, -1.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Release every thread at once, so the first requests race.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      seen[t] = &column.ValueCounts();
      entropies[t] = column.Entropy();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<uint64_t> reference = ReferenceCounts(column);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    EXPECT_EQ(*seen[t], reference) << "thread " << t;
    EXPECT_EQ(entropies[t], entropies[0]) << "thread " << t;
  }
}

// An append's successor digests its codes as a column built from them
// in one go does, whether its digest extended the parent's (same width)
// or was hashed afresh (the support crossed a power of two).
TEST(ColumnTest, AppendedDigestEqualsOneShotDigest) {
  const Column parent = SkewedColumn(1001, 4);
  for (const uint32_t support : {37u, 64u, 65u}) {
    SCOPED_TRACE("support=" + std::to_string(support));
    const std::vector<ValueCode> tail = {36, 0, support - 1, 5};
    auto appended = parent.Append(tail, support, {}, nullptr);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    std::vector<ValueCode> codes = parent.codes();
    codes.insert(codes.end(), tail.begin(), tail.end());
    EXPECT_EQ(appended->codes(), codes);
    EXPECT_EQ(appended->PayloadDigest(),
              Column::Make("x", support, codes)->PayloadDigest());
  }
  EXPECT_NE(parent.Append({1}, 37, {}, nullptr)->PayloadDigest(),
            parent.Append({2}, 37, {}, nullptr)->PayloadDigest());
  EXPECT_TRUE(
      parent.Append({1}, 36, {}, nullptr).status().IsInvalidArgument());
  EXPECT_TRUE(
      parent.Append({37}, 37, {}, nullptr).status().IsInvalidArgument());
}

// Concurrent first requests for a fresh column's digest must hash once
// and agree (CI runs this under TSan).
TEST(ColumnTest, ConcurrentFirstDigestsAgree) {
  constexpr int kThreads = 8;
  const Column column = SkewedColumn(200000, 3);
  std::atomic<int> arrived{0};
  std::vector<uint64_t> digests(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      digests[t] = column.PayloadDigest();
    });
  }
  for (std::thread& thread : threads) thread.join();
  // A column built afresh from the same codes has a cache of its own.
  const uint64_t reference =
      Column::Make("x", 37, column.codes())->PayloadDigest();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(digests[t], reference) << "thread " << t;
  }
}

}  // namespace
}  // namespace swope
