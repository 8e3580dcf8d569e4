// Randomized robustness suites:
//  * CSV and binary round trips over randomly generated tables with
//    hostile cell contents (quotes, delimiters, newlines, unicode bytes),
//  * byte-level corruption of binary images must never crash and must
//    surface as a non-OK status or a still-valid table that also takes
//    an append with every code in range,
//  * sequential-sampling queries agree with their own reruns and satisfy
//    the approximation contract on shuffled storage.

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/entropy.h"
#include "src/core/swope_topk_entropy.h"
#include "src/eval/accuracy.h"
#include "src/table/append.h"
#include "src/table/binary_io.h"
#include "src/table/csv_reader.h"
#include "src/table/csv_writer.h"
#include "src/table/sketch_sidecar.h"
#include "src/table/table_builder.h"
#include "tests/test_util.h"

namespace swope {
namespace {

// Every code of `table` is below its column's support.
void ExpectCodesInRange(const Table& table) {
  for (const Column& col : table.columns()) {
    for (uint64_t r = 0; r < col.size(); ++r) {
      ASSERT_LT(col.code(r), std::max<uint32_t>(col.support(), 1));
    }
  }
}

// A mutant that loads must also survive an append. Append copies the
// payload words and ORs the new codes into the last one, so a set bit a
// loader let through past the last code would show up here as a code
// >= support.
void ExpectAppendKeepsCodesInRange(const Table& table) {
  if (table.num_columns() == 0) return;
  auto appended = AppendRowsToTable(
      table, {std::vector<std::string>(table.num_columns(), "0")});
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  ASSERT_EQ(appended->num_rows(), table.num_rows() + 1);
  ExpectCodesInRange(*appended);
}

// A pool of hostile cell values.
std::string RandomCell(Rng& rng) {
  static const char* kPool[] = {
      "",       "plain",      "with,comma", "with\"quote", "line\nbreak",
      "  pad ", "tab\tcell",  "'single'",   ",,,",         "\"\"",
      "0",      "-1",         "3.14",       "NULL",        "N/A",
      "\xc3\xa9\xc3\xa8",     "emoji \xf0\x9f\x98\x80",    "\r",
  };
  return kPool[rng.UniformU64(sizeof(kPool) / sizeof(kPool[0]))];
}

TEST(FuzzRoundTripTest, CsvSurvivesHostileCells) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const size_t cols = 1 + rng.UniformU64(5);
    const size_t rows = 1 + rng.UniformU64(40);
    std::vector<std::string> names;
    for (size_t c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
    auto builder = TableBuilder::Make(names);
    ASSERT_TRUE(builder.ok());
    std::vector<std::vector<std::string>> cells(rows);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) cells[r].push_back(RandomCell(rng));
      ASSERT_TRUE(builder->AppendRow(cells[r]).ok());
    }
    auto table = std::move(*builder).Finish();
    ASSERT_TRUE(table.ok());

    std::ostringstream out;
    ASSERT_TRUE(WriteCsv(*table, out).ok());
    std::istringstream in(out.str());
    auto parsed = ReadCsv(in);
    ASSERT_TRUE(parsed.ok())
        << "seed " << seed << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->num_rows(), rows) << "seed " << seed;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(parsed->column(c).LabelOf(parsed->column(c).code(r)),
                  cells[r][c])
            << "seed " << seed << " cell (" << r << "," << c << ")";
      }
    }
  }
}

// Serializes a table as a version-1 image (one u32 per code), which the
// current writer no longer emits but the reader must keep accepting.
std::string WriteV1Image(const Table& table) {
  std::ostringstream out;
  auto put_u32 = [&out](uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  out.write("SWPB", 4);
  put_u32(1);  // version
  const uint64_t rows = table.num_rows();
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  put_u32(static_cast<uint32_t>(table.num_columns()));
  for (const Column& col : table.columns()) {
    put_u32(static_cast<uint32_t>(col.name().size()));
    out.write(col.name().data(),
              static_cast<std::streamsize>(col.name().size()));
    put_u32(col.support());
    const char has_labels = col.has_labels() ? 1 : 0;
    out.write(&has_labels, 1);
    if (col.has_labels()) {
      for (const std::string& label : col.labels()) {
        put_u32(static_cast<uint32_t>(label.size()));
        out.write(label.data(),
                  static_cast<std::streamsize>(label.size()));
      }
    }
    for (ValueCode code : col.codes()) put_u32(code);
  }
  return out.str();
}

TEST(FuzzRoundTripTest, V1ImageReadsBackIdentical) {
  const Table table = test::MakeEntropyTable({1.5, 3.0, 0.8}, 700, 13);
  std::stringstream stream(WriteV1Image(table));
  auto loaded = ReadBinaryTable(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), table.num_rows());
  ASSERT_EQ(loaded->num_columns(), table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(loaded->column(c).codes(), table.column(c).codes());
    EXPECT_EQ(loaded->column(c).support(), table.column(c).support());
  }
}

TEST(FuzzRoundTripTest, V1CorruptionNeverCrashes) {
  const Table table = test::MakeEntropyTable({1.0, 2.5, 0.5}, 500, 3);
  const std::string image = WriteV1Image(table);

  Rng rng(173);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = image;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] = static_cast<char>(rng.Next());
    }
    std::stringstream stream(mutated);
    auto loaded = ReadBinaryTable(stream);  // must not crash or hang
    if (loaded.ok()) {
      for (const Column& col : loaded->columns()) {
        for (uint64_t r = 0; r < col.size(); ++r) {
          ASSERT_LT(col.code(r), std::max<uint32_t>(col.support(), 1));
        }
      }
    }
  }
}

TEST(FuzzRoundTripTest, V1TruncationAlwaysCorruption) {
  const Table table = test::MakeEntropyTable({2.0, 1.0}, 200, 5);
  const std::string image = WriteV1Image(table);
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t cut = rng.UniformU64(image.size());
    std::stringstream stream(image.substr(0, cut));
    auto loaded = ReadBinaryTable(stream);
    EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
  }
}

TEST(FuzzRoundTripTest, BinaryCorruptionNeverCrashes) {
  const Table table = test::MakeEntropyTable({1.0, 2.5, 0.5}, 500, 3);
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(table, buffer).ok());
  const std::string image = buffer.str();

  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = image;
    // Flip 1-4 random bytes.
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] = static_cast<char>(rng.Next());
    }
    std::stringstream stream(mutated);
    auto loaded = ReadBinaryTable(stream);  // must not crash or hang
    if (loaded.ok()) {
      // A surviving table must still be structurally valid.
      ExpectCodesInRange(*loaded);
      ExpectAppendKeepsCodesInRange(*loaded);
    }
  }
}

// A v3 image (count-min sidecars attached): generates an entropy table,
// promotes every column to carry a sketch, and serializes it.
std::string WriteV3Image() {
  const Table table = test::MakeEntropyTable({1.0, 2.5, 0.5}, 500, 3);
  auto sketched = AttachSketches(table, /*epsilon=*/0.05, /*delta=*/0.05,
                                 /*min_support=*/0, /*seed=*/9);
  EXPECT_TRUE(sketched.ok()) << sketched.status().ToString();
  EXPECT_GT(sketched->SketchMemoryBytes(), 0u);
  std::stringstream buffer;
  EXPECT_TRUE(WriteBinaryTable(*sketched, buffer).ok());
  std::string image = buffer.str();
  EXPECT_EQ(static_cast<uint8_t>(image[4]), 3);  // sidecars force v3
  return image;
}

TEST(FuzzRoundTripTest, V3SketchCorruptionNeverCrashes) {
  const std::string image = WriteV3Image();
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = image;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] = static_cast<char>(rng.Next());
    }
    std::stringstream stream(mutated);
    auto loaded = ReadBinaryTable(stream);  // must not crash or hang
    if (loaded.ok()) {
      for (const Column& col : loaded->columns()) {
        for (uint64_t r = 0; r < col.size(); ++r) {
          ASSERT_LT(col.code(r), std::max<uint32_t>(col.support(), 1));
        }
        if (col.has_sketch()) {
          // A surviving sidecar must still satisfy the row-sum invariant
          // FromParts enforces -- spot-check it never undercounts its
          // own stream length promise.
          ASSERT_LE(col.sketch()->Estimate(0),
                    col.sketch()->total_count());
        }
      }
    }
  }
}

TEST(FuzzRoundTripTest, V3TruncationAlwaysCorruption) {
  const std::string image = WriteV3Image();
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t cut = rng.UniformU64(image.size());
    std::stringstream stream(image.substr(0, cut));
    auto loaded = ReadBinaryTable(stream);
    EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
  }
}

TEST(FuzzRoundTripTest, BinaryTruncationAlwaysCorruption) {
  const Table table = test::MakeEntropyTable({2.0, 1.0}, 200, 5);
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(table, buffer).ok());
  const std::string image = buffer.str();
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t cut = rng.UniformU64(image.size());
    std::stringstream stream(image.substr(0, cut));
    auto loaded = ReadBinaryTable(stream);
    EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
  }
}

// ---- Mapped-load robustness ------------------------------------------
//
// The mmap loader (ReadBinaryTableFileMapped) borrows words straight out
// of the file mapping, so its bounds checking is the only thing between
// a corrupt file and a SIGBUS. These mirror the stream-loader fuzz
// suites through temp files.

class ScopedImageFile {
 public:
  explicit ScopedImageFile(const std::string& bytes)
      : path_(::testing::TempDir() + "/fuzz_mapped_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".swpb") {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good());
  }
  ~ScopedImageFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FuzzRoundTripTest, MappedLoadMatchesStreamLoad) {
  const Table table = test::MakeEntropyTable({1.0, 2.5, 0.5}, 500, 3);
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(table, buffer).ok());
  ScopedImageFile file(buffer.str());

  auto mapped = ReadBinaryTableFileMapped(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_GT(mapped->MappedBytes(), 0u)
      << "page-aligned writer output should load borrowed, not copied";
  ASSERT_EQ(mapped->num_rows(), table.num_rows());
  ASSERT_EQ(mapped->num_columns(), table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(mapped->column(c).codes(), table.column(c).codes());
  }
}

TEST(FuzzRoundTripTest, MappedCorruptionNeverCrashes) {
  const Table table = test::MakeEntropyTable({1.0, 2.5, 0.5}, 500, 3);
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(table, buffer).ok());
  const std::string image = buffer.str();

  Rng rng(57);
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = image;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] = static_cast<char>(rng.Next());
    }
    ScopedImageFile file(mutated);
    // Must not crash, and in particular must never fault past the
    // mapping: every read is bounds-checked against ReadableBytes.
    auto loaded = ReadBinaryTableFileMapped(file.path());
    if (loaded.ok()) {
      ExpectCodesInRange(*loaded);
      ExpectAppendKeepsCodesInRange(*loaded);
    }
  }
}

TEST(FuzzRoundTripTest, MappedV3CorruptionNeverCrashes) {
  const std::string image = WriteV3Image();
  Rng rng(61);
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = image;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] = static_cast<char>(rng.Next());
    }
    ScopedImageFile file(mutated);
    auto loaded = ReadBinaryTableFileMapped(file.path());
    if (loaded.ok()) {
      for (const Column& col : loaded->columns()) {
        for (uint64_t r = 0; r < col.size(); ++r) {
          ASSERT_LT(col.code(r), std::max<uint32_t>(col.support(), 1));
        }
      }
    }
  }
}

TEST(FuzzRoundTripTest, MappedTruncationAlwaysCorruption) {
  const Table table = test::MakeEntropyTable({2.0, 1.0}, 200, 5);
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(table, buffer).ok());
  const std::string image = buffer.str();
  Rng rng(67);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t cut = rng.UniformU64(image.size());
    ScopedImageFile file(image.substr(0, cut));
    auto loaded = ReadBinaryTableFileMapped(file.path());
    EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
  }
}

TEST(FuzzRoundTripTest, MappedV1FallsBackToStreamLoader) {
  const Table table = test::MakeEntropyTable({1.5, 3.0}, 300, 13);
  ScopedImageFile file(WriteV1Image(table));
  auto loaded = ReadBinaryTableFileMapped(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->MappedBytes(), 0u) << "v1 has no borrowable payloads";
  ASSERT_EQ(loaded->num_rows(), table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(loaded->column(c).codes(), table.column(c).codes());
  }
}

TEST(FuzzRoundTripTest, SequentialSamplingOnShuffledStorageIsSound) {
  // The benches run with sequential_sampling = true on synthetic tables
  // whose stored order is i.i.d.; the Definition 5 guarantee must hold
  // there just as with per-query permutations.
  const Table table = test::MakeEntropyTable(
      {5.0, 4.2, 3.4, 2.6, 1.8, 1.0}, 40000, 11);
  const auto exact = ExactEntropies(table);
  const auto eligible = test::AllIndices(table.num_columns());
  for (double eps : {0.1, 0.25}) {
    QueryOptions options;
    options.epsilon = eps;
    options.sequential_sampling = true;
    auto result = SwopeTopKEntropy(table, 3, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(
        SatisfiesApproxTopK(result->items, exact, eligible, 3, eps));
    // Sequential runs are fully deterministic regardless of seed.
    QueryOptions other_seed = options;
    other_seed.seed = options.seed + 12345;
    auto again = SwopeTopKEntropy(table, 3, other_seed);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(result->items.size(), again->items.size());
    for (size_t i = 0; i < result->items.size(); ++i) {
      EXPECT_EQ(result->items[i].index, again->items[i].index);
      EXPECT_DOUBLE_EQ(result->items[i].estimate, again->items[i].estimate);
    }
  }
}

}  // namespace
}  // namespace swope
