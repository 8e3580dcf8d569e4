// Closed-loop serve latency: one client issuing entropy top-k and MI
// top-k queries back-to-back against a QueryEngine, comparing owned
// (heap-resident) storage with mmap-loaded SWPB columns. Both runs use
// the pooled per-query arena (always on), so after the warmup queries
// the core path allocates nothing and the p50/p99 gap isolates the
// storage difference: borrowed words faulted from the page cache versus
// heap-resident words. Caching is disabled so every query executes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/engine/query_engine.h"
#include "src/eval/report.h"
#include "src/table/binary_io.h"

namespace swope {
namespace {

struct LatencyResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  uint64_t resident_bytes = 0;
  uint64_t mapped_bytes = 0;
};

double Percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const size_t index = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[index];
}

// One engine, one closed-loop client: `warmup` unmeasured queries (they
// size the pooled arena and fault in the mapped pages), then `measured`
// timed ones.
LatencyResult RunClosedLoop(const std::string& path, bool mmap,
                            QueryKind kind, int warmup, int measured) {
  EngineConfig config;
  config.num_threads = 1;
  config.result_cache_capacity = 0;
  QueryEngine engine(config);
  if (!engine
           .RegisterDatasetFile("d", path, /*max_support=*/0,
                                /*sketch_epsilon=*/0.0,
                                /*sketch_threshold=*/1000, mmap)
           .ok()) {
    std::exit(1);
  }
  if (kind == QueryKind::kMiTopK) {
    auto dataset = engine.registry().Get("d");
    if (!dataset.ok()) std::exit(1);
    bench::WarmColumnCounts((*dataset)->table);
  }

  auto run_one = [&engine, kind](uint64_t seed) {
    QuerySpec spec;
    spec.dataset = "d";
    spec.kind = kind;
    spec.k = 4;
    if (kind == QueryKind::kMiTopK) spec.target = "0";
    spec.options.seed = seed;
    Stopwatch latency;
    if (!engine.Run(spec).ok()) std::exit(1);
    return latency.ElapsedMillis();
  };

  for (int i = 0; i < warmup; ++i) run_one(1 + static_cast<uint64_t>(i));
  std::vector<double> latencies;
  Stopwatch wall;
  for (int i = 0; i < measured; ++i) {
    latencies.push_back(run_one(1000 + static_cast<uint64_t>(i)));
  }
  const double wall_seconds = wall.ElapsedSeconds();

  std::sort(latencies.begin(), latencies.end());
  LatencyResult result;
  result.p50_ms = Percentile(latencies, 0.50);
  result.p99_ms = Percentile(latencies, 0.99);
  result.qps = static_cast<double>(latencies.size()) / wall_seconds;
  const DatasetRegistry::Stats stats = engine.registry().GetStats();
  result.resident_bytes = stats.resident_bytes;
  result.mapped_bytes = stats.mapped_bytes;
  return result;
}

std::string FormatMib(uint64_t bytes) {
  return ReportTable::FormatDouble(
             static_cast<double>(bytes) / (1024.0 * 1024.0), 2) +
         " MiB";
}

void Run(const BenchConfig& config) {
  const uint64_t rows = config.RowsOrDefault(200000);
  std::cout << "# Serve latency: owned vs mmap-loaded storage "
               "(closed loop, pooled query memory)\n";
  std::cout << "rows=" << rows << " reps=" << config.reps
            << " seed=" << config.seed
            << (config.quick ? " (quick)" : "") << "\n\n";

  auto made = MakePresetTable(DatasetPreset::kCdc, rows, config.seed);
  if (!made.ok()) std::exit(1);
  const Table table = made->DropHighSupportColumns(1000);
  const std::string path =
      "/tmp/swope_serve_latency_" + std::to_string(config.seed) + ".swpb";
  if (!WriteBinaryTableFile(table, path).ok()) std::exit(1);

  const int warmup = 2;
  const int measured = config.quick ? 8 : 32;

  std::cout << "## cdc\n\n";
  ReportTable report({"query", "storage", "resident", "mapped", "p50 (ms)",
                      "p99 (ms)", "QPS"});
  struct KindRow {
    QueryKind kind;
    const char* name;
  };
  for (const KindRow& kr : {KindRow{QueryKind::kEntropyTopK, "entropy-top4"},
                            KindRow{QueryKind::kMiTopK, "mi-top4"}}) {
    for (const bool mmap : {false, true}) {
      const LatencyResult r =
          RunClosedLoop(path, mmap, kr.kind, warmup, measured);
      report.AddRow({kr.name, mmap ? "mapped" : "owned",
                     FormatMib(r.resident_bytes), FormatMib(r.mapped_bytes),
                     ReportTable::FormatDouble(r.p50_ms, 3),
                     ReportTable::FormatDouble(r.p99_ms, 3),
                     ReportTable::FormatDouble(r.qps, 1)});
    }
  }
  report.PrintMarkdown(std::cout);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swope

int main(int argc, char** argv) {
  swope::Run(swope::BenchConfig::FromArgs(argc, argv));
  return 0;
}
