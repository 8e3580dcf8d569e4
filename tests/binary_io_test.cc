#include "src/table/binary_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/table/table_builder.h"

namespace swope {
namespace {

Table SampleTable() {
  auto builder = TableBuilder::Make({"name", "grade"});
  EXPECT_TRUE(builder.ok());
  EXPECT_TRUE(builder->AppendRow({"alice", "A"}).ok());
  EXPECT_TRUE(builder->AppendRow({"bob", "B"}).ok());
  EXPECT_TRUE(builder->AppendRow({"alice", "A"}).ok());
  auto table = std::move(*builder).Finish();
  EXPECT_TRUE(table.ok());
  return std::move(table).value();
}

TEST(BinaryIoTest, RoundTripWithLabels) {
  const Table original = SampleTable();
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(original, buffer).ok());
  auto loaded = ReadBinaryTable(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 3u);
  ASSERT_EQ(loaded->num_columns(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(loaded->column(c).name(), original.column(c).name());
    EXPECT_EQ(loaded->column(c).support(), original.column(c).support());
    EXPECT_EQ(loaded->column(c).codes(), original.column(c).codes());
    EXPECT_EQ(loaded->column(c).labels(), original.column(c).labels());
  }
}

TEST(BinaryIoTest, RoundTripWithoutLabels) {
  auto column = Column::Make("x", 5, {4, 1, 3, 0, 0});
  ASSERT_TRUE(column.ok());
  auto original = Table::Make({std::move(column).value()});
  ASSERT_TRUE(original.ok());

  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(*original, buffer).ok());
  auto loaded = ReadBinaryTable(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->column(0).has_labels());
  EXPECT_EQ(loaded->column(0).codes(), original->column(0).codes());
}

TEST(BinaryIoTest, RoundTripEmptyTable) {
  auto original = Table::Make({});
  ASSERT_TRUE(original.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(*original, buffer).ok());
  auto loaded = ReadBinaryTable(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_columns(), 0u);
}

TEST(BinaryIoTest, BadMagicIsCorruption) {
  std::stringstream buffer("NOPE with some trailing bytes");
  auto loaded = ReadBinaryTable(buffer);
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST(BinaryIoTest, TruncatedStreamIsCorruption) {
  // Unpadded layout: every strict prefix is missing real data. (A padded
  // image's trailing guard and padding runs are ignorable, so the
  // property only holds for the compact layout.)
  const Table original = SampleTable();
  std::stringstream buffer;
  ASSERT_TRUE(
      WriteBinaryTable(original, buffer, {.page_align = false}).ok());
  const std::string bytes = buffer.str();
  for (size_t cut : {size_t{4}, size_t{10}, bytes.size() - 3}) {
    std::stringstream truncated(bytes.substr(0, cut));
    auto loaded = ReadBinaryTable(truncated);
    EXPECT_TRUE(loaded.status().IsCorruption()) << "cut=" << cut;
  }
}

TEST(BinaryIoTest, WrongVersionIsCorruption) {
  const Table original = SampleTable();
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(original, buffer).ok());
  std::string bytes = buffer.str();
  bytes[4] = 99;  // version field follows the 4-byte magic
  std::stringstream bad(bytes);
  EXPECT_TRUE(ReadBinaryTable(bad).status().IsCorruption());
}

TEST(BinaryIoTest, WrongVersionDiagnosticNamesSupportedVersions) {
  const Table original = SampleTable();
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(original, buffer).ok());
  std::string bytes = buffer.str();
  bytes[4] = 99;
  std::stringstream bad(bytes);
  const Status status = ReadBinaryTable(bad).status();
  EXPECT_NE(status.message().find("unsupported version 99"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("supported: 1, 2"), std::string::npos)
      << status.ToString();
}

// A complete version-1 image, checked in byte-for-byte, so the legacy
// read path keeps working no matter what the current writer emits:
// 4 rows, two columns -- "x" (support 3, no labels, codes 2 0 1 2) and
// "g" (support 2, labels "lo"/"hi", codes 0 1 1 0). Version-1 payloads
// are one little-endian u32 per code.
constexpr unsigned char kV1Fixture[] = {
    'S', 'W', 'P', 'B',              // magic
    1, 0, 0, 0,                      // version = 1
    4, 0, 0, 0, 0, 0, 0, 0,          // num_rows = 4
    2, 0, 0, 0,                      // num_columns = 2
    // column "x"
    1, 0, 0, 0, 'x',                 // name
    3, 0, 0, 0,                      // support = 3
    0,                               // has_labels = 0
    2, 0, 0, 0, 0, 0, 0, 0,          // codes[0..1] = 2, 0
    1, 0, 0, 0, 2, 0, 0, 0,          // codes[2..3] = 1, 2
    // column "g"
    1, 0, 0, 0, 'g',                 // name
    2, 0, 0, 0,                      // support = 2
    1,                               // has_labels = 1
    2, 0, 0, 0, 'l', 'o',            // labels[0] = "lo"
    2, 0, 0, 0, 'h', 'i',            // labels[1] = "hi"
    0, 0, 0, 0, 1, 0, 0, 0,          // codes[0..1] = 0, 1
    1, 0, 0, 0, 0, 0, 0, 0,          // codes[2..3] = 1, 0
};

TEST(BinaryIoTest, ReadsCheckedInV1Fixture) {
  std::stringstream buffer(std::string(
      reinterpret_cast<const char*>(kV1Fixture), sizeof(kV1Fixture)));
  auto loaded = ReadBinaryTable(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 4u);
  ASSERT_EQ(loaded->num_columns(), 2u);
  EXPECT_EQ(loaded->column(0).name(), "x");
  EXPECT_EQ(loaded->column(0).support(), 3u);
  EXPECT_FALSE(loaded->column(0).has_labels());
  EXPECT_EQ(loaded->column(0).codes(),
            (std::vector<ValueCode>{2, 0, 1, 2}));
  EXPECT_EQ(loaded->column(1).name(), "g");
  EXPECT_EQ(loaded->column(1).support(), 2u);
  EXPECT_EQ(loaded->column(1).labels(),
            (std::vector<std::string>{"lo", "hi"}));
  EXPECT_EQ(loaded->column(1).codes(),
            (std::vector<ValueCode>{0, 1, 1, 0}));
}

TEST(BinaryIoTest, RewritingV1FixtureUpgradesToV2) {
  std::stringstream buffer(std::string(
      reinterpret_cast<const char*>(kV1Fixture), sizeof(kV1Fixture)));
  auto loaded = ReadBinaryTable(buffer);
  ASSERT_TRUE(loaded.ok());
  std::stringstream rewritten;
  ASSERT_TRUE(
      WriteBinaryTable(*loaded, rewritten, {.page_align = false}).ok());
  const std::string bytes = rewritten.str();
  ASSERT_GE(bytes.size(), size_t{8});
  EXPECT_EQ(bytes[4], 2);  // current version: bit-packed payload
  // Packing shrinks the payload: the compact v2 image must be smaller
  // than the 4-bytes-per-code v1 fixture.
  EXPECT_LT(bytes.size(), sizeof(kV1Fixture));
  std::stringstream reread(bytes);
  auto roundtrip = ReadBinaryTable(reread);
  ASSERT_TRUE(roundtrip.ok()) << roundtrip.status().ToString();
  EXPECT_EQ(roundtrip->column(0).codes(), loaded->column(0).codes());
  EXPECT_EQ(roundtrip->column(1).codes(), loaded->column(1).codes());
  EXPECT_EQ(roundtrip->column(1).labels(), loaded->column(1).labels());
}

TEST(BinaryIoTest, V2WidthMismatchIsCorruption) {
  // Corrupt the declared width byte of a v2 column; the reader must
  // reject it because it disagrees with the canonical width for the
  // declared support.
  auto column = Column::Make("w", 5, {4, 1, 3, 0, 0});
  ASSERT_TRUE(column.ok());
  auto original = Table::Make({std::move(column).value()});
  ASSERT_TRUE(original.ok());
  std::stringstream buffer;
  ASSERT_TRUE(
      WriteBinaryTable(*original, buffer, {.page_align = false}).ok());
  std::string bytes = buffer.str();
  // Compact layout: magic(4) + version(4) + rows(8) + cols(4) = offset
  // 20; then name len(4) + "w"(1) + support(4) + has_labels(1) puts the
  // width byte at offset 30.
  ASSERT_GT(bytes.size(), size_t{30});
  ASSERT_EQ(bytes[30], 3);  // WidthForSupport(5)
  bytes[30] = 7;
  std::stringstream bad(bytes);
  const Status status = ReadBinaryTable(bad).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("width"), std::string::npos)
      << status.ToString();
}

// Ten width-3 codes fill bits 0-29 of one payload word; set bits 30-63
// of it in the file. Neither loader may accept the image: CheckCodes
// decodes only the ten real codes, so the dirty bits would survive into
// the table, and the next Append would OR its codes into them -- codes
// >= support that count past the end of a support-sized counter.
TEST(BinaryIoTest, SetBitsPastLastCodeAreCorruption) {
  auto column = Column::Make("w", 5, {0, 1, 2, 3, 4, 0, 1, 2, 3, 4});
  ASSERT_TRUE(column.ok());
  auto original = Table::Make({std::move(column).value()});
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(original->column(0).packed().num_data_words(), 1u);
  const uint64_t clean = original->column(0).packed().data_words()[0];
  const uint64_t dirty = clean | (~uint64_t{0} << 30);
  const std::string clean_bytes(reinterpret_cast<const char*>(&clean),
                                sizeof(clean));
  const std::string path = testing::TempDir() + "/swope_dirty_tail.swpb";
  // Padded files take the mapped loader's borrowing path (BorrowWords),
  // compact ones its heap copy (FromWords).
  for (const bool page_align : {true, false}) {
    SCOPED_TRACE(page_align ? "padded" : "compact");
    std::stringstream buffer;
    ASSERT_TRUE(
        WriteBinaryTable(*original, buffer, {.page_align = page_align})
            .ok());
    std::string bytes = buffer.str();
    const size_t at = bytes.find(clean_bytes);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(bytes.rfind(clean_bytes), at);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    {
      auto clean_load = ReadBinaryTableFileMapped(path);
      ASSERT_TRUE(clean_load.ok()) << clean_load.status().ToString();
      EXPECT_EQ(clean_load->MappedBytes() > 0, page_align);
    }

    std::memcpy(&bytes[at], &dirty, sizeof(dirty));
    std::stringstream heap(bytes);
    const Status heap_status = ReadBinaryTable(heap).status();
    EXPECT_TRUE(heap_status.IsCorruption()) << heap_status.ToString();
    EXPECT_NE(heap_status.message().find("column 'w'"), std::string::npos)
        << heap_status.ToString();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const Status mapped_status = ReadBinaryTableFileMapped(path).status();
    EXPECT_TRUE(mapped_status.IsCorruption()) << mapped_status.ToString();
    EXPECT_NE(mapped_status.message().find("column 'w'"), std::string::npos)
        << mapped_status.ToString();
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, LyingRowCountIsCorruptionNotAllocation) {
  // A corrupt header claiming absurd row counts must fail upfront with
  // Corruption -- the reader validates the declared sizes against the
  // remaining stream bytes instead of resizing buffers for data that can
  // never arrive.
  const Table original = SampleTable();
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(original, buffer).ok());
  std::string bytes = buffer.str();
  // num_rows is the u64 at offset 8 (after magic + version).
  const uint64_t absurd_rows = uint64_t{1} << 61;
  std::memcpy(&bytes[8], &absurd_rows, sizeof(absurd_rows));
  std::stringstream corrupt(bytes);
  auto loaded = ReadBinaryTable(corrupt);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(BinaryIoTest, OverflowingRowCountTimesWidthIsCorruption) {
  // num_rows = 2^59 with a width-32 column makes num_rows * width wrap
  // uint64 to 0 bits, so the naive word count is 0: an empty payload
  // would sail past both the stream-size check and FromWords' count
  // check, and the first decode would read out of bounds. The reader
  // must reject the size before computing any word count.
  constexpr unsigned char kOverflowV2[] = {
      'S', 'W', 'P', 'B',              // magic
      2, 0, 0, 0,                      // version = 2
      0, 0, 0, 0, 0, 0, 0, 8,          // num_rows = 2^59
      1, 0, 0, 0,                      // num_columns = 1
      1, 0, 0, 0, 'x',                 // name "x"
      0xFF, 0xFF, 0xFF, 0xFF,          // support = 2^32 - 1 -> width 32
      0,                               // has_labels = 0
      32,                              // declared width
                                       // no payload: wrapped count is 0
  };
  std::stringstream corrupt(std::string(
      reinterpret_cast<const char*>(kOverflowV2), sizeof(kOverflowV2)));
  auto loaded = ReadBinaryTable(corrupt);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(BinaryIoTest, RowCountAboveSamplingLimitIsCorruption) {
  // 2^32 + 5 rows of one width-0 column: the image is complete (a
  // constant column has no payload), so only the row limit can reject
  // it. Both loaders must do so from the header, before the column scan.
  constexpr unsigned char kTooManyRowsV2[] = {
      'S', 'W', 'P', 'B',              // magic
      2, 0, 0, 0,                      // version = 2
      5, 0, 0, 0, 1, 0, 0, 0,          // num_rows = 2^32 + 5
      1, 0, 0, 0,                      // num_columns = 1
      1, 0, 0, 0, 'x',                 // name "x"
      1, 0, 0, 0,                      // support = 1 -> width 0
      0,                               // has_labels = 0
      0,                               // declared width, no payload
  };
  const std::string image(reinterpret_cast<const char*>(kTooManyRowsV2),
                          sizeof(kTooManyRowsV2));
  std::stringstream heap(image);
  const Status heap_status = ReadBinaryTable(heap).status();
  EXPECT_TRUE(heap_status.IsCorruption()) << heap_status.ToString();
  EXPECT_NE(heap_status.message().find("header claims 4294967301 rows"),
            std::string::npos)
      << heap_status.ToString();

  const std::string path = testing::TempDir() + "/swope_too_many_rows.swpb";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  const Status mapped_status = ReadBinaryTableFileMapped(path).status();
  EXPECT_TRUE(mapped_status.IsCorruption()) << mapped_status.ToString();
  EXPECT_NE(mapped_status.message().find("header claims 4294967301 rows"),
            std::string::npos)
      << mapped_status.ToString();
  std::remove(path.c_str());
}

TEST(BinaryIoTest, LyingColumnCountIsCorruption) {
  const Table original = SampleTable();
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(original, buffer).ok());
  std::string bytes = buffer.str();
  // num_columns is the u32 at offset 16; claim far more columns than the
  // stream could possibly hold.
  const uint32_t absurd_columns = 0xFFFFFFFFu;
  std::memcpy(&bytes[16], &absurd_columns, sizeof(absurd_columns));
  std::stringstream corrupt(bytes);
  auto loaded = ReadBinaryTable(corrupt);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(BinaryIoTest, FileRoundTrip) {
  const Table original = SampleTable();
  const std::string path = testing::TempDir() + "/swope_binary_io_test.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(original, path).ok());
  auto loaded = ReadBinaryTableFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), original.num_rows());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      ReadBinaryTableFile("/no/such/file.swpb").status().IsIOError());
}

TEST(BinaryIoTest, PaddedImageHasMarkerAndRoundTrips) {
  const Table original = SampleTable();
  std::stringstream buffer;
  ASSERT_TRUE(WriteBinaryTable(original, buffer).ok());
  const std::string bytes = buffer.str();
  // The first column's payload is non-empty, so the default writer puts
  // a padding run where the width byte otherwise starts: offset 49
  // (header 20 + name 8 + support 4 + has_labels 1 + labels
  // "alice"/"bob" 16).
  ASSERT_GT(bytes.size(), size_t{49});
  EXPECT_EQ(static_cast<unsigned char>(bytes[49]), 0xA7);
  std::stringstream reread(bytes);
  auto loaded = ReadBinaryTable(reread);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(loaded->column(c).codes(), original.column(c).codes());
  }
}

TEST(BinaryIoTest, PaddedWriteAlignsEveryPayload) {
  // Wide-ish column so the payload spans multiple words; every non-empty
  // payload must start on the requested alignment boundary.
  std::vector<ValueCode> codes(1000);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<ValueCode>(i % 700);
  }
  auto column = Column::Make("wide", 700, codes);
  ASSERT_TRUE(column.ok());
  auto narrow = Column::Make("narrow", 2, std::vector<ValueCode>(1000, 1));
  ASSERT_TRUE(narrow.ok());
  auto original = Table::Make(
      {std::move(column).value(), std::move(narrow).value()});
  ASSERT_TRUE(original.ok());
  std::stringstream buffer;
  ASSERT_TRUE(
      WriteBinaryTable(*original, buffer, {.alignment = 512}).ok());
  const std::string bytes = buffer.str();
  std::stringstream reread(bytes);
  auto loaded = ReadBinaryTable(reread);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->column(0).codes(), original->column(0).codes());
  EXPECT_EQ(loaded->column(1).codes(), original->column(1).codes());
  // Locate each padding run and check the byte after it (the width byte,
  // i.e. payload start minus one... payload starts right after width) is
  // positioned so the payload lands on a 512-byte boundary.
  size_t runs = 0;
  for (size_t i = 20; i + 5 < bytes.size(); ++i) {
    if (static_cast<unsigned char>(bytes[i]) != 0xA7) continue;
    uint32_t pad = 0;
    std::memcpy(&pad, &bytes[i + 1], sizeof(pad));
    const size_t payload_start = i + 5 + pad + 1;  // run + width byte
    if (payload_start <= bytes.size() && payload_start % 512 == 0) {
      ++runs;
      i += 4 + pad;
    }
  }
  EXPECT_EQ(runs, 2u);
}

TEST(BinaryIoTest, MappedLoadBorrowsPaddedPayloads) {
  const Table original = SampleTable();
  const std::string path = testing::TempDir() + "/swope_mapped_io.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(original, path).ok());
  auto loaded = ReadBinaryTableFileMapped(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded->MappedBytes(), 0u);
  ASSERT_EQ(loaded->num_rows(), original.num_rows());
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(loaded->column(c).codes(), original.column(c).codes());
    EXPECT_EQ(loaded->column(c).labels(), original.column(c).labels());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MappedLoadOfCompactFileCopiesToHeap) {
  // Unpadded payloads are generally misaligned or lack the trailing read
  // guard; the mapped loader must still succeed by copying them.
  const Table original = SampleTable();
  const std::string path = testing::TempDir() + "/swope_compact_io.swpb";
  ASSERT_TRUE(
      WriteBinaryTableFile(original, path, {.page_align = false}).ok());
  auto loaded = ReadBinaryTableFileMapped(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->MappedBytes(), 0u);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(loaded->column(c).codes(), original.column(c).codes());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MappedLoadMissingFileIsIOError) {
  EXPECT_TRUE(ReadBinaryTableFileMapped("/no/such/file.swpb")
                  .status()
                  .IsIOError());
}

TEST(BinaryIoTest, MappedLoadTruncatedFileIsCorruption) {
  const Table original = SampleTable();
  const std::string full = testing::TempDir() + "/swope_trunc_full.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(original, full, {.page_align = false})
                  .ok());
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string path = testing::TempDir() + "/swope_trunc.swpb";
  for (size_t cut : {size_t{4}, size_t{10}, bytes.size() - 3}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto loaded = ReadBinaryTableFileMapped(path);
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "cut=" << cut << ": " << loaded.status().ToString();
  }
  std::remove(full.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swope
