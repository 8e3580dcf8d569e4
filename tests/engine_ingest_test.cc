// Streaming ingest through the engine: appended rows change the answer
// without a full re-encode, the fingerprint rotates so cached results
// for the old contents are never served (and equals the fingerprint of
// the same rows built in one go), and the serve front end exposes the
// whole flow (ingest op, sketch path report) as JSON.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/engine/serve.h"
#include "src/table/binary_io.h"
#include "src/table/column.h"
#include "src/table/fingerprint.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"

namespace swope {
namespace {

// Two labeled columns; "color" is heavily skewed toward "red".
Table MakeSmallTable() {
  auto builder = TableBuilder::Make({"color", "shape"});
  EXPECT_TRUE(builder.ok());
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(
        builder
            ->AppendRow({i % 10 == 0 ? "blue" : "red",
                         i % 2 == 0 ? "disc" : "ring"})
            .ok());
  }
  auto table = std::move(*builder).Finish();
  EXPECT_TRUE(table.ok());
  return std::move(table).value();
}

Table MakeHighCardinalityTable(uint32_t support, uint64_t rows) {
  std::vector<Column> columns;
  std::vector<ValueCode> high(rows), low(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    high[i] = static_cast<ValueCode>(i % support);
    low[i] = static_cast<ValueCode>(i % 4);
  }
  columns.push_back(Column::FromCodes("hc", std::move(high)));
  columns.push_back(Column::FromCodes("lo", std::move(low)));
  auto table = Table::Make(std::move(columns));
  EXPECT_TRUE(table.ok());
  return std::move(table).value();
}

QuerySpec EntropyTopKSpec(const std::string& dataset, size_t k) {
  QuerySpec spec;
  spec.dataset = dataset;
  spec.kind = QueryKind::kEntropyTopK;
  spec.k = k;
  return spec;
}

TEST(EngineIngestTest, AppendInvalidatesCacheAndUpdatesAnswers) {
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("ds", MakeSmallTable()).ok());

  const QuerySpec spec = EntropyTopKSpec("ds", 2);
  auto before = engine.Run(spec);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->cache_hit);
  auto cached = engine.Run(spec);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cache_hit);

  // Append rows that flip the skew: "color" was low-entropy, the new
  // rows spread it out.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({"green" + std::to_string(i % 50), "disc"});
  }
  ASSERT_TRUE(engine.Ingest("ds", rows).ok());

  auto after = engine.Run(spec);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->cache_hit) << "stale cached answer served";
  EXPECT_NE(after->fingerprint, before->fingerprint);

  auto dataset = engine.registry().Get("ds");
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ((*dataset)->table.num_rows(), 600u);
  EXPECT_EQ((*dataset)->table.column(0).support(), 52u);  // 2 + 50 greens

  const EngineCounters counters = engine.GetCounters();
  EXPECT_EQ(counters.ingest_rows, 300u);
  EXPECT_EQ(counters.queries_exact, 3u);
  EXPECT_EQ(counters.queries_sketch, 0u);
}

// The fingerprint an Ingest registers is a function of the rows alone:
// it equals the fingerprint of the same rows built in one go, whether
// the dataset was registered from the heap or from a mapped file. The
// green rows take "color" from support 2 to 52 (a repack at a wider
// width); "shape" keeps its width (copied words plus packed tail).
TEST(EngineIngestTest, IngestedFingerprintEqualsOneShotBuild) {
  std::vector<std::vector<std::string>> first, second;
  for (int i = 0; i < 300; ++i) {
    first.push_back(
        {i % 10 == 0 ? "blue" : "red", i % 2 == 0 ? "disc" : "ring"});
    second.push_back({"green" + std::to_string(i % 50), "disc"});
  }
  auto builder = TableBuilder::Make({"color", "shape"});
  ASSERT_TRUE(builder.ok());
  for (const auto* rows : {&first, &second}) {
    for (const auto& row : *rows) ASSERT_TRUE(builder->AppendRow(row).ok());
  }
  auto one_shot = std::move(*builder).Finish();
  ASSERT_TRUE(one_shot.ok());
  const uint64_t expected = TableFingerprint(*one_shot);

  const Table initial = MakeSmallTable();
  const std::string path =
      ::testing::TempDir() + "/engine_ingest_fingerprint.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(initial, path).ok());
  for (const bool mapped : {false, true}) {
    SCOPED_TRACE(mapped ? "mapped" : "heap");
    QueryEngine engine;
    if (mapped) {
      ASSERT_TRUE(engine
                      .RegisterDatasetFile("ds", path, /*max_support=*/0,
                                           /*sketch_epsilon=*/0.0,
                                           /*sketch_threshold=*/1000,
                                           /*mmap=*/true)
                      .ok());
    } else {
      ASSERT_TRUE(engine.RegisterDataset("ds", initial).ok());
    }
    ASSERT_TRUE(engine.Ingest("ds", second).ok());
    auto dataset = engine.registry().Get("ds");
    ASSERT_TRUE(dataset.ok());
    EXPECT_EQ((*dataset)->fingerprint, expected);
    EXPECT_EQ(TableFingerprint((*dataset)->table), expected);
  }
  std::remove(path.c_str());
}

TEST(EngineIngestTest, IngestErrorsLeaveDatasetUntouched) {
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("ds", MakeSmallTable()).ok());

  EXPECT_TRUE(engine.Ingest("missing", {{"red", "disc"}}).IsNotFound());
  EXPECT_TRUE(engine.Ingest("ds", {{"red"}}).IsInvalidArgument());
  EXPECT_TRUE(engine.Ingest("ds", {}).IsInvalidArgument());

  auto dataset = engine.registry().Get("ds");
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ((*dataset)->table.num_rows(), 300u);
  EXPECT_EQ(engine.GetCounters().ingest_rows, 0u);
}

TEST(EngineIngestTest, SketchQueriesAreCountedAndReported) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("hc", MakeHighCardinalityTable(4096, 16384))
          .ok());

  QuerySpec spec = EntropyTopKSpec("hc", 2);
  spec.options.sketch_epsilon = 0.01;
  auto response = engine.Run(spec);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->stats.sketch_candidates, 1u);

  // Without the sketch path the same dataset is rejected outright.
  auto rejected = engine.Run(EntropyTopKSpec("hc", 2));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());

  const EngineCounters counters = engine.GetCounters();
  EXPECT_EQ(counters.queries_sketch, 1u);
  EXPECT_EQ(counters.queries_exact, 0u);
  EXPECT_EQ(counters.queries_failed, 1u);

  // The registry tracks no sidecar bytes here (query-local sketches
  // only); attaching sidecars shows up in the gauge.
  EXPECT_EQ(engine.registry().GetStats().sketch_bytes, 0u);
}

TEST(EngineIngestTest, ServeIngestAndSketchPathJson) {
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("ds", MakeSmallTable()).ok());
  ASSERT_TRUE(
      engine.RegisterDataset("hc", MakeHighCardinalityTable(2048, 8192))
          .ok());
  bool quit = false;

  const std::string ingest = HandleRequestLine(
      engine, "ingest dataset=ds row=red,disc", &quit);
  EXPECT_NE(ingest.find("\"ok\":true"), std::string::npos) << ingest;
  EXPECT_NE(ingest.find("\"appended\":1"), std::string::npos);
  EXPECT_NE(ingest.find("\"rows\":301"), std::string::npos);

  const std::string exact = HandleRequestLine(
      engine, "query dataset=ds kind=entropy-topk k=1", &quit);
  EXPECT_NE(exact.find("\"path\":\"exact\""), std::string::npos) << exact;

  const std::string sketched = HandleRequestLine(
      engine, "query dataset=hc kind=entropy-topk k=1 sketch-epsilon=0.01",
      &quit);
  EXPECT_NE(sketched.find("\"path\":\"sketch\""), std::string::npos)
      << sketched;
  EXPECT_NE(sketched.find("\"sketch_candidates\":1"), std::string::npos);

  const std::string missing_rows =
      HandleRequestLine(engine, "ingest dataset=ds", &quit);
  EXPECT_NE(missing_rows.find("\"ok\":false"), std::string::npos);

  const std::string stats = HandleRequestLine(engine, "stats", &quit);
  EXPECT_NE(stats.find("\"ingest_rows\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"queries_sketch\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"sketch_bytes\":"), std::string::npos);
}

}  // namespace
}  // namespace swope
