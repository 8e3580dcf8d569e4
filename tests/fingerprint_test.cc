#include "src/table/fingerprint.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/datagen/generator.h"
#include "src/table/append.h"
#include "src/table/binary_io.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;

TEST(FingerprintTest, DeterministicAcrossCopies) {
  const Table a = MakeEntropyTable({3.0, 4.0}, 500, 7);
  const Table b = MakeEntropyTable({3.0, 4.0}, 500, 7);
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
  // Repeated calls on the same object agree too.
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(a));
}

TEST(FingerprintTest, SensitiveToData) {
  const Table base = MakeEntropyTable({3.0, 4.0}, 500, 7);
  // Different generation seed => different codes => different print.
  EXPECT_NE(TableFingerprint(base),
            TableFingerprint(MakeEntropyTable({3.0, 4.0}, 500, 8)));
  // Different row count.
  EXPECT_NE(TableFingerprint(base),
            TableFingerprint(MakeEntropyTable({3.0, 4.0}, 501, 7)));
  // Different column count.
  EXPECT_NE(TableFingerprint(base),
            TableFingerprint(MakeEntropyTable({3.0, 4.0, 2.0}, 500, 7)));
}

TEST(FingerprintTest, SensitiveToColumnName) {
  TableSpec spec;
  spec.num_rows = 200;
  spec.seed = 11;
  spec.columns.push_back(ColumnSpec::EntropyTargeted("alpha", 16, 3.0));
  auto a = GenerateTable(spec);
  ASSERT_TRUE(a.ok());
  spec.columns[0] = ColumnSpec::EntropyTargeted("beta", 16, 3.0);
  auto b = GenerateTable(spec);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(TableFingerprint(*a), TableFingerprint(*b));
}

TEST(FingerprintTest, SensitiveToRowOrder) {
  const Table base = MakeEntropyTable({3.0, 4.0}, 500, 7);
  std::vector<uint32_t> perm(500);
  for (uint32_t r = 0; r < 500; ++r) perm[r] = 499 - r;
  auto permuted = base.PermuteRows(perm);
  ASSERT_TRUE(permuted.ok());
  EXPECT_NE(TableFingerprint(base), TableFingerprint(*permuted));
}

TEST(FingerprintTest, EmptyTableHasStablePrint) {
  const Table empty;
  EXPECT_EQ(TableFingerprint(empty), TableFingerprint(Table()));
}

// ---- Content only, however the columns were built -------------------
//
// The fingerprint hashes packed payload words, so it must not see how a
// payload came to be: every construction path below stores the same
// codes at the same width with zero bits past the last code.

Table OneColumnTable(std::vector<ValueCode> codes, uint32_t support) {
  auto column = Column::Make("c", support, std::move(codes));
  EXPECT_TRUE(column.ok()) << column.status().ToString();
  auto table = Table::Make({std::move(column).value()});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

std::vector<std::vector<std::string>> AsRows(
    const std::vector<ValueCode>& codes, size_t begin, size_t end) {
  std::vector<std::vector<std::string>> rows;
  for (size_t i = begin; i < end; ++i) {
    rows.push_back({std::to_string(codes[i])});
  }
  return rows;
}

TEST(FingerprintTest, EqualAcrossEveryConstructionPath) {
  for (const uint32_t width : {0u, 1u, 2u, 3u, 5u, 7u, 8u, 13u, 16u, 17u,
                               32u}) {
    // 128 rows end every width on a word boundary; 131 and 1001 end
    // mid-word for every width above 0.
    for (const uint64_t rows : {uint64_t{128}, uint64_t{131},
                                uint64_t{1001}}) {
      SCOPED_TRACE("width=" + std::to_string(width) +
                   " rows=" + std::to_string(rows));
      ASSERT_EQ(rows * width % 64 == 0, rows == 128 || width == 0);
      // Support 2^(width-1) + 1 has exactly this width. Rows before cut1
      // stay below 2^(width-1), so the first-half table and the first
      // appended batch are one bit narrower, and the second batch, which
      // opens with code 2^(width-1), makes Append repack at the full
      // width. (Width 0 has nothing to cross.)
      const uint32_t support = width == 0 ? 1 : (1u << (width - 1)) + 1;
      const uint32_t narrow = std::max(support - 1, 1u);
      ASSERT_EQ(PackedCodes::WidthForSupport(support), width);
      const size_t half = rows / 2;
      const size_t cut1 = half + (rows - half) / 3;
      const size_t cut2 = half + 2 * (rows - half) / 3;
      Rng rng(100 + width + rows);
      std::vector<ValueCode> codes(rows);
      for (size_t i = 0; i < rows; ++i) {
        const uint32_t bound = i < cut1 ? narrow : support;
        codes[i] = static_cast<ValueCode>(rng.UniformU64(bound));
      }
      codes[cut1] = support - 1;

      const Table made = OneColumnTable(codes, support);
      const uint64_t expected = TableFingerprint(made);

      // Heap and mapped loads of the table's SWPB file.
      const std::string path = ::testing::TempDir() + "/fingerprint.swpb";
      ASSERT_TRUE(WriteBinaryTableFile(made, path).ok());
      auto heap = ReadBinaryTableFile(path);
      ASSERT_TRUE(heap.ok()) << heap.status().ToString();
      EXPECT_EQ(TableFingerprint(*heap), expected);
      {
        auto mapped = ReadBinaryTableFileMapped(path);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
        EXPECT_EQ(mapped->MappedBytes() > 0, width > 0);
        EXPECT_EQ(TableFingerprint(*mapped), expected);
      }
      std::remove(path.c_str());

      // A chain of appends onto the first half: same width, then the
      // crossing batch, then same width again.
      const Table first_half = OneColumnTable(
          std::vector<ValueCode>(
              codes.begin(),
              codes.begin() + static_cast<std::ptrdiff_t>(half)),
          narrow);
      Table appended = first_half;
      for (const auto& [begin, end] :
           {std::pair{half, cut1}, std::pair{cut1, cut2},
            std::pair{cut2, static_cast<size_t>(rows)}}) {
        if (begin == end) continue;
        auto next = AppendRowsToTable(appended, AsRows(codes, begin, end));
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        appended = std::move(next).value();
      }
      ASSERT_EQ(appended.column(0).support(), support);
      ASSERT_EQ(appended.column(0).codes(), codes);
      EXPECT_EQ(TableFingerprint(appended), expected);

      // The same rows one per append: each digest extends the last one,
      // so the chain resumes at every word boundary and at each partial
      // word, before and after the width crossing at cut1.
      Table one_by_one = first_half;
      for (size_t i = half; i < rows; ++i) {
        auto next = AppendRowsToTable(one_by_one, AsRows(codes, i, i + 1));
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        one_by_one = std::move(next).value();
      }
      ASSERT_EQ(one_by_one.column(0).codes(), codes);
      EXPECT_EQ(TableFingerprint(one_by_one), expected);

      // Only the last row's code changed: a different print.
      if (support > 1) {
        std::vector<ValueCode> changed = codes;
        changed.back() = (changed.back() + 1) % support;
        EXPECT_NE(TableFingerprint(OneColumnTable(changed, support)),
                  expected);
      }
    }
  }
}

}  // namespace
}  // namespace swope
