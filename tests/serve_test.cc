#include "src/engine/serve.h"

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/table/append.h"
#include "src/table/binary_io.h"
#include "src/table/csv_writer.h"
#include "src/table/fingerprint.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeEntropyTable;
using test::MakeMiTable;

std::string Handle(QueryEngine& engine, const std::string& line) {
  bool quit = false;
  return HandleRequestLine(engine, line, &quit);
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a") + '\x01' + "b"), "a\\u0001b");
}

TEST(ServeTest, QueryOverRegisteredDataset) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 2.0}, 1500, 3))
          .ok());
  const std::string response =
      Handle(engine, "query dataset=ds kind=entropy-topk k=1");
  EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"query\"", 0), 0u)
      << response;
  EXPECT_NE(response.find("\"kind\":\"entropy-topk\""), std::string::npos);
  EXPECT_NE(response.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(response.find("\"estimate\":"), std::string::npos);

  // The per-line JSON carries the full QueryStats block.
  for (const char* field :
       {"\"stats\":{", "\"final_sample_size\":", "\"initial_sample_size\":",
        "\"iterations\":", "\"cells_scanned\":", "\"candidates_remaining\":",
        "\"exhausted_dataset\":"}) {
    EXPECT_NE(response.find(field), std::string::npos)
        << field << " missing in " << response;
  }

  // The repeat is answered from cache, visibly.
  const std::string repeat =
      Handle(engine, "query dataset=ds kind=entropy-topk k=1");
  EXPECT_NE(repeat.find("\"cache_hit\":true"), std::string::npos) << repeat;
}

TEST(ServeTest, LoadBinaryAndCsvFiles) {
  const Table table = MakeMiTable({0.4, 0.7}, 800, 9);
  const std::string binary_path = ::testing::TempDir() + "serve_test.swpb";
  const std::string csv_path = ::testing::TempDir() + "serve_test.csv";
  ASSERT_TRUE(WriteBinaryTableFile(table, binary_path).ok());
  ASSERT_TRUE(WriteCsvFile(table, csv_path).ok());

  QueryEngine engine;
  const std::string bin_response =
      Handle(engine, "load name=bin path=" + binary_path);
  EXPECT_EQ(bin_response.rfind("{\"ok\":true,\"op\":\"load\"", 0), 0u)
      << bin_response;
  EXPECT_NE(bin_response.find("\"rows\":800"), std::string::npos);
  EXPECT_NE(bin_response.find("\"columns\":3"), std::string::npos);

  const std::string csv_response =
      Handle(engine, "load name=csv path=" + csv_path);
  EXPECT_EQ(csv_response.rfind("{\"ok\":true", 0), 0u) << csv_response;

  // Both loads carry the same data modulo dictionary code assignment;
  // a query against each must succeed.
  EXPECT_EQ(Handle(engine, "query dataset=bin kind=mi-topk k=1 target=t")
                .rfind("{\"ok\":true", 0),
            0u);
  EXPECT_EQ(Handle(engine, "query dataset=csv kind=mi-topk k=1 target=t")
                .rfind("{\"ok\":true", 0),
            0u);
}

TEST(ServeTest, DatasetsAndUnload) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("a", MakeEntropyTable({3.0}, 300, 1)).ok());
  ASSERT_TRUE(
      engine.RegisterDataset("b", MakeEntropyTable({3.0}, 300, 2)).ok());
  EXPECT_EQ(Handle(engine, "datasets"),
            "{\"ok\":true,\"op\":\"datasets\",\"names\":[\"a\",\"b\"]}");
  EXPECT_EQ(Handle(engine, "unload name=a"),
            "{\"ok\":true,\"op\":\"unload\",\"name\":\"a\"}");
  EXPECT_EQ(Handle(engine, "datasets"),
            "{\"ok\":true,\"op\":\"datasets\",\"names\":[\"b\"]}");
  const std::string missing = Handle(engine, "unload name=a");
  EXPECT_EQ(missing.rfind("{\"ok\":false", 0), 0u);
  EXPECT_NE(missing.find("\"code\":\"Not found\""), std::string::npos)
      << missing;
}

TEST(ServeTest, StatsReflectTraffic) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0}, 1000, 1)).ok());
  ASSERT_TRUE(
      Handle(engine, "query dataset=ds kind=entropy-topk k=1")
          .rfind("{\"ok\":true", 0) == 0);
  const std::string stats = Handle(engine, "stats");
  EXPECT_EQ(stats.rfind("{\"ok\":true,\"op\":\"stats\"", 0), 0u) << stats;
  EXPECT_NE(stats.find("\"queries_ok\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"resident_datasets\":1"), std::string::npos);
  // Execution geometry (docs/ENGINE.md): scheduler mode, intra-query
  // width, and the admission counters are part of the stats surface.
  EXPECT_NE(stats.find("\"pool_mode\":\"stealing\""), std::string::npos);
  EXPECT_NE(stats.find("\"intra_query_threads\":"), std::string::npos);
  EXPECT_NE(stats.find("\"rejected\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"pool_steals\":"), std::string::npos);
}

TEST(ServeTest, TracedQueryCarriesPerRoundRows) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 2.0}, 1500, 3))
          .ok());
  const std::string response =
      Handle(engine, "query dataset=ds kind=entropy-topk k=1 trace=1");
  EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"query\"", 0), 0u)
      << response;
  ASSERT_NE(response.find("\"trace\":["), std::string::npos) << response;
  // One row per sampling round, each with the full schema.
  for (const char* field : {"\"round\":1", "\"m\":", "\"lambda\":",
                            "\"max_bias\":", "\"active\":", "\"decided\":",
                            "\"cells\":", "\"ms\":"}) {
    EXPECT_NE(response.find(field), std::string::npos)
        << field << " missing in " << response;
  }

  // The untraced form of the same query omits the array -- and note the
  // traced run above populated the cache (trace is not part of the
  // canonical key), so this is also the cache-hit-carries-no-trace case.
  const std::string untraced =
      Handle(engine, "query dataset=ds kind=entropy-topk k=1");
  EXPECT_NE(untraced.find("\"cache_hit\":true"), std::string::npos)
      << untraced;
  EXPECT_EQ(untraced.find("\"trace\":["), std::string::npos) << untraced;

  // A traced repeat is served from cache and therefore ran zero rounds:
  // no trace either.
  const std::string traced_hit =
      Handle(engine, "query dataset=ds kind=entropy-topk k=1 trace=1");
  EXPECT_NE(traced_hit.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_EQ(traced_hit.find("\"trace\":["), std::string::npos) << traced_hit;
}

TEST(ServeTest, MetricsReflectQueryBurst) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0, 1.0}, 1200, 5))
          .ok());
  // A small burst: one real execution, two cache hits.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(Handle(engine, "query dataset=ds kind=entropy-topk k=1")
                  .rfind("{\"ok\":true", 0),
              0u);
  }

  const std::string response = Handle(engine, "metrics");
  EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"metrics\"", 0), 0u)
      << response;
  // Prometheus text is embedded as an escaped JSON string; the family
  // names survive escaping verbatim.
  ASSERT_NE(response.find("\"prometheus\":\""), std::string::npos);
  EXPECT_NE(response.find("swope_engine_queries_ok_total 3"),
            std::string::npos)
      << response;
  EXPECT_NE(
      response.find(
          "swope_engine_query_latency_ms_count{kind=\\\"entropy-topk\\\"} 3"),
      std::string::npos)
      << response;
  EXPECT_NE(response.find("swope_cache_hits_total{cache=\\\"result\\\"} 2"),
            std::string::npos);
  EXPECT_NE(
      response.find("swope_cache_misses_total{cache=\\\"result\\\"} 1"),
      std::string::npos);
  // Executor pool stats are present (the burst above ran synchronously,
  // so the counter may be zero -- the family must still be exposed).
  EXPECT_NE(response.find("swope_pool_tasks_total{pool=\\\"executor\\\"}"),
            std::string::npos);
  // The JSON snapshot rides along as a nested object.
  ASSERT_NE(response.find("\"snapshot\":{"), std::string::npos);
  EXPECT_NE(response.find("\"swope_engine_queries_ok_total\":3"),
            std::string::npos);
}

TEST(ServeTest, ProfiledQueryCarriesStageBreakdown) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 2.0}, 1500, 3))
          .ok());
  const std::string response =
      Handle(engine, "query dataset=ds kind=entropy-topk k=1 profile=1");
  EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"query\"", 0), 0u)
      << response;
  ASSERT_NE(response.find("\"profile\":{\"stages\":["), std::string::npos)
      << response;
  // The serial execution path exercises gathering, counting, interval
  // updates, and finalization; scheduling-wait is always timed.
  for (const char* stage :
       {"\"stage\":\"gather\"", "\"stage\":\"count\"",
        "\"stage\":\"interval-update\"", "\"stage\":\"finalize\"",
        "\"stage\":\"scheduling-wait\""}) {
    EXPECT_NE(response.find(stage), std::string::npos)
        << stage << " missing in " << response;
  }
  EXPECT_NE(response.find("\"stage_sum_ms\":"), std::string::npos);
  EXPECT_NE(response.find("\"wall_ms\":"), std::string::npos);

  // Profile is not part of the canonical cache key, and a cache hit ran
  // no stages: the profiled repeat carries no profile block.
  const std::string hit =
      Handle(engine, "query dataset=ds kind=entropy-topk k=1 profile=1");
  EXPECT_NE(hit.find("\"cache_hit\":true"), std::string::npos) << hit;
  EXPECT_EQ(hit.find("\"profile\":"), std::string::npos) << hit;
}

TEST(ServeTest, ProfileOffOutputIsByteIdenticalToUnprofiled) {
  // `profile=0` (and an absent profile argument) must not perturb a
  // single byte of the reply: two identically seeded engines answer the
  // same query identically whether or not the flag is spelled out.
  QueryEngine plain_engine;
  QueryEngine flagged_engine;
  ASSERT_TRUE(
      plain_engine
          .RegisterDataset("ds", MakeEntropyTable({5.0, 2.0}, 1500, 3))
          .ok());
  ASSERT_TRUE(
      flagged_engine
          .RegisterDataset("ds", MakeEntropyTable({5.0, 2.0}, 1500, 3))
          .ok());
  const std::string plain =
      Handle(plain_engine, "query dataset=ds kind=entropy-topk k=1");
  const std::string flagged = Handle(
      flagged_engine, "query dataset=ds kind=entropy-topk k=1 profile=0");
  EXPECT_EQ(plain, flagged);
  EXPECT_EQ(plain.find("\"profile\":"), std::string::npos) << plain;
}

TEST(ServeTest, EventsOpReportsLifecycle) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0}, 1000, 1)).ok());
  ASSERT_EQ(Handle(engine, "query dataset=ds kind=entropy-topk k=1")
                .rfind("{\"ok\":true", 0),
            0u);
  const std::string response = Handle(engine, "events");
  EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"events\",\"total\":", 0),
            0u)
      << response;
  for (const char* needle :
       {"\"kind\":\"dataset-load\"", "\"kind\":\"query-admit\"",
        "\"kind\":\"query-complete\"", "\"dataset\":\"ds\"",
        "\"seq\":0", "\"detail\":\"rows=1000\""}) {
    EXPECT_NE(response.find(needle), std::string::npos)
        << needle << " missing in " << response;
  }

  // n= caps the snapshot at the newest events.
  const std::string limited = Handle(engine, "events n=1");
  EXPECT_EQ(limited.rfind("{\"ok\":true,\"op\":\"events\"", 0), 0u);
  // Exactly one event object in the array.
  size_t count = 0;
  for (size_t pos = limited.find("\"seq\":"); pos != std::string::npos;
       pos = limited.find("\"seq\":", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << limited;
  EXPECT_NE(limited.find("\"kind\":\"query-complete\""), std::string::npos)
      << limited;
}

TEST(ServeTest, SlowQueryThresholdCapturesStageBreakdown) {
  EngineConfig config;
  config.slow_query_ms = 1e-6;  // every executed query is "slow"
  QueryEngine engine(config);
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0, 1.0}, 1200, 5))
          .ok());
  ASSERT_EQ(Handle(engine, "query dataset=ds kind=entropy-topk k=1")
                .rfind("{\"ok\":true", 0),
            0u);
  const std::string response = Handle(engine, "events");
  ASSERT_NE(response.find("\"kind\":\"slow-query\""), std::string::npos)
      << response;
  // The captured detail embeds the stage profile even though the client
  // never asked for profile=1.
  EXPECT_NE(response.find("stages:"), std::string::npos) << response;
  EXPECT_NE(response.find("sum="), std::string::npos) << response;

  // Cache hits never re-trip the slow-query capture.
  const std::string before = Handle(engine, "events");
  ASSERT_EQ(Handle(engine, "query dataset=ds kind=entropy-topk k=1")
                .rfind("{\"ok\":true", 0),
            0u);
  const std::string after = Handle(engine, "events");
  size_t slow_before = 0, slow_after = 0;
  for (size_t pos = before.find("slow-query"); pos != std::string::npos;
       pos = before.find("slow-query", pos + 1)) {
    ++slow_before;
  }
  for (size_t pos = after.find("slow-query"); pos != std::string::npos;
       pos = after.find("slow-query", pos + 1)) {
    ++slow_after;
  }
  EXPECT_EQ(slow_before, slow_after);
}

TEST(ServeTest, StatsCarryUtilizationAndEventTelemetry) {
  EngineConfig config;
  config.intra_query_threads = 2;
  QueryEngine engine(config);
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({4.0}, 1000, 1)).ok());
  ASSERT_EQ(Handle(engine, "query dataset=ds kind=entropy-topk k=1")
                .rfind("{\"ok\":true", 0),
            0u);
  const std::string stats = Handle(engine, "stats");
  for (const char* field :
       {"\"events_logged\":", "\"executor_utilization\":",
        "\"executor_run_ms\":", "\"executor_idle_ms\":",
        "\"intra_utilization\":", "\"intra_run_ms\":",
        "\"intra_idle_ms\":"}) {
    EXPECT_NE(stats.find(field), std::string::npos)
        << field << " missing in " << stats;
  }
  // At least dataset-load + admit + complete were logged.
  EXPECT_EQ(stats.find("\"events_logged\":0"), std::string::npos) << stats;
}

TEST(ServeTest, MalformedRequestsAreInBandErrors) {
  QueryEngine engine;
  // Unknown op.
  EXPECT_EQ(Handle(engine, "frobnicate").rfind("{\"ok\":false", 0), 0u);
  // Missing '=' in an argument.
  EXPECT_EQ(Handle(engine, "query dataset").rfind("{\"ok\":false", 0), 0u);
  // Unknown kind.
  EXPECT_EQ(Handle(engine, "query dataset=x kind=magic")
                .rfind("{\"ok\":false", 0),
            0u);
  // Non-numeric numeric argument.
  EXPECT_EQ(Handle(engine, "query dataset=x kind=entropy-topk k=lots")
                .rfind("{\"ok\":false", 0),
            0u);
  // Unknown dataset surfaces the engine's NotFound.
  const std::string response =
      Handle(engine, "query dataset=ghost kind=entropy-topk k=1");
  EXPECT_NE(response.find("\"code\":\"Not found\""), std::string::npos)
      << response;
}

// Arguments a lenient parser would reinterpret silently: strtoull wraps
// a negative k to 2^64-1 and saturates an out-of-range seed, and a flag
// compared against 1/true reads any other value as false. Each must be
// an in-band InvalidArgument.
TEST(ServeTest, OutOfRangeAndNonBooleanArgumentsAreRejected) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 2.0}, 1500, 3))
          .ok());
  for (const char* line :
       {"query dataset=ds kind=entropy-topk k=-1",
        "query dataset=ds kind=entropy-topk k=1 seed=99999999999999999999",
        "query dataset=ds kind=entropy-topk k=1 profile=yes",
        "query dataset=ds kind=entropy-topk k=1 trace=on",
        "query dataset=ds kind=entropy-topk k=1 sequential=2",
        "load name=m path=/nonexistent.swpb mmap=2"}) {
    const std::string response = Handle(engine, line);
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << line;
    EXPECT_NE(response.find("\"code\":\"Invalid argument\""),
              std::string::npos)
        << line << " -> " << response;
  }
  // The accepted spellings still parse.
  for (const char* line :
       {"query dataset=ds kind=entropy-topk k=1 seed=18446744073709551615",
        "query dataset=ds kind=entropy-topk k=1 profile=false trace=0",
        "query dataset=ds kind=entropy-topk k=1 sequential=true"}) {
    EXPECT_EQ(Handle(engine, line).rfind("{\"ok\":true", 0), 0u) << line;
  }
}

// `row=` is the one argument that may repeat: each occurrence appends one
// row, in order, with the same result as appending those rows in one go.
// Any other repeated key is an in-band error, not a silent last-one-wins.
TEST(ServeTest, RepeatedRowsAppendInOrderAndOtherRepeatsAreRejected) {
  const Table table = MakeEntropyTable({5.0, 2.0}, 1500, 3);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("ds", table).ok());
  const std::string response =
      Handle(engine, "ingest dataset=ds row=3,1 row=4,0 row=3,1");
  EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"ingest\"", 0), 0u)
      << response;
  EXPECT_NE(response.find("\"appended\":3"), std::string::npos) << response;
  EXPECT_NE(response.find("\"rows\":1503"), std::string::npos) << response;
  auto appended =
      AppendRowsToTable(table, {{"3", "1"}, {"4", "0"}, {"3", "1"}});
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_NE(response.find("\"fingerprint\":" +
                          std::to_string(TableFingerprint(*appended)) + "}"),
            std::string::npos)
      << response;

  for (const char* line :
       {"query dataset=ds kind=entropy-topk k=1 k=2",
        "ingest dataset=ds row=3,1 dataset=ds"}) {
    const std::string rejected = Handle(engine, line);
    EXPECT_EQ(rejected.rfind("{\"ok\":false", 0), 0u) << line;
    EXPECT_NE(rejected.find("\"code\":\"Invalid argument\""),
              std::string::npos)
        << line << " -> " << rejected;
    EXPECT_NE(rejected.find("given more than once"), std::string::npos)
        << line << " -> " << rejected;
  }
  // The rejected ingest appended nothing.
  auto dataset = engine.registry().Get("ds");
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ((*dataset)->table.num_rows(), 1503u);
}

// A key its op does not take is an in-band InvalidArgument naming the
// first such key, never a silently ignored setting: `epsilom=0.01` ran a
// query at the default epsilon = 0.1, and `exact=1` ran a sampled query.
TEST(ServeTest, UnknownKeysAreRejectedPerOp) {
  const Table table = MakeEntropyTable({5.0, 2.0}, 1500, 3);
  const std::string path = ::testing::TempDir() + "/serve_unknown_keys.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(table, path).ok());
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("ds", table).ok());
  const uint64_t rows = table.num_rows();

  struct Case {
    std::string line;
    std::string key;
  };
  const std::vector<Case> cases = {
      {"query dataset=ds kind=entropy-topk k=1 epsilom=0.01", "epsilom"},
      {"query dataset=ds kind=entropy-topk k=1 exact=1", "exact"},
      {"query dataset=ds kind=entropy-topk k=1 bogus=1 other=2", "bogus"},
      {"load name=other path=" + path + " mmpa=1", "mmpa"},
      {"ingest dataset=ds row=3,1 rows=4,0", "rows"},
      {"unload name=ds force=1", "force"},
      {"events n=2 since=1", "since"},
      {"datasets all=1", "all"},
      {"stats verbose=1", "verbose"},
      {"metrics format=json", "format"},
      {"quit now=1", "now"},
  };
  for (const Case& c : cases) {
    bool quit = false;
    const std::string response = HandleRequestLine(engine, c.line, &quit);
    EXPECT_FALSE(quit) << c.line;
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << c.line;
    EXPECT_NE(response.find("\"code\":\"Invalid argument\""),
              std::string::npos)
        << c.line << " -> " << response;
    EXPECT_NE(response.find("unknown argument " + c.key + "\""),
              std::string::npos)
        << c.line << " -> " << response;
  }
  std::remove(path.c_str());

  // None of the rejected requests acted: nothing loaded, ingested or
  // unloaded, and no query ran, so a well-spelt query is not a cache hit
  // of the misspelt one.
  EXPECT_EQ(Handle(engine, "datasets"),
            "{\"ok\":true,\"op\":\"datasets\",\"names\":[\"ds\"]}");
  EXPECT_EQ(engine.registry().Get("ds").value()->table.num_rows(), rows);
  EXPECT_EQ(engine.GetCounters().queries_started, 0u);
  const std::string query =
      Handle(engine, "query dataset=ds kind=entropy-topk k=1");
  EXPECT_NE(query.find("\"cache_hit\":false"), std::string::npos) << query;

  // Every accepted key of every op still parses.
  for (const char* line :
       {"query dataset=ds kind=entropy-topk k=1 eta=1 target=0 epsilon=0.2 "
        "seed=3 pf=0.01 m0=64 growth=2 sketch-threshold=1000 "
        "sketch-epsilon=0 sequential=0 timeout-ms=0 trace=0 profile=0",
        "ingest dataset=ds row=3,1", "events n=1", "stats", "datasets",
        "metrics"}) {
    EXPECT_EQ(Handle(engine, line).rfind("{\"ok\":true", 0), 0u) << line;
  }
  EXPECT_EQ(Handle(engine, "unload name=ds"),
            "{\"ok\":true,\"op\":\"unload\",\"name\":\"ds\"}");
}

TEST(ServeTest, QuitStopsTheLoop) {
  QueryEngine engine;
  bool quit = false;
  EXPECT_EQ(HandleRequestLine(engine, "quit", &quit),
            "{\"ok\":true,\"op\":\"quit\"}");
  EXPECT_TRUE(quit);
}

TEST(ServeTest, ServeLoopProcessesAScript) {
  QueryEngine engine;
  ASSERT_TRUE(
      engine.RegisterDataset("ds", MakeEntropyTable({5.0, 1.0}, 1200, 6))
          .ok());
  std::istringstream in(
      "# comment line\n"
      "\n"
      "datasets\n"
      "query dataset=ds kind=entropy-topk k=1\n"
      "query dataset=ds kind=entropy-topk k=1\n"
      "query dataset=nope kind=entropy-topk k=1\n"
      "quit\n"
      "datasets\n");  // after quit: must not be processed
  std::ostringstream out;
  const uint64_t failures = ServeLoop(engine, in, out);
  EXPECT_EQ(failures, 1u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 5u);  // comment/blank skipped, quit stops
  EXPECT_EQ(responses[0].rfind("{\"ok\":true,\"op\":\"datasets\"", 0), 0u);
  EXPECT_NE(responses[1].find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(responses[2].find("\"cache_hit\":true"), std::string::npos);
  EXPECT_EQ(responses[3].rfind("{\"ok\":false", 0), 0u);
  EXPECT_EQ(responses[4], "{\"ok\":true,\"op\":\"quit\"}");
}

}  // namespace
}  // namespace swope
