// Multi-query serving throughput: closed-loop clients hammering one
// QueryEngine with intra-query parallelism, comparing the work-stealing
// pool against the single-queue baseline (EngineConfig::pool_mode) at
// several concurrency levels. Reports QPS plus p50/p99 latency per
// (clients, mode) cell; the `vs single-queue` column is the
// stealing-mode QPS ratio (docs/ENGINE.md). The gap comes from
// scheduling -- per-task lock handoffs versus lock-free local deques --
// so it only opens on multi-core hosts; on a single core both modes
// serialize and the ratio hovers near 1.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/engine/query_engine.h"
#include "src/eval/report.h"

namespace swope {
namespace {

constexpr size_t kIntraThreads = 4;

struct BurstResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t steals = 0;
};

double Percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const size_t index = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[index];
}

// `clients` closed-loop threads each run `per_client` distinct
// entropy-topk queries through QueryEngine::Run (caching disabled, so
// every query executes and its candidate tasks land on the shared
// intra-query pool).
BurstResult RunBurst(const Table& table, PoolMode mode, size_t clients,
                     int per_client) {
  EngineConfig config;
  config.num_threads = 2;  // Submit() executor, unused by this bench
  config.intra_query_threads = kIntraThreads;
  config.pool_mode = mode;
  config.max_in_flight = clients;
  config.result_cache_capacity = 0;
  QueryEngine engine(config);
  if (!engine.RegisterDataset("d", table).ok()) std::exit(1);

  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> workers;
  Stopwatch wall;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&engine, &latencies, c, per_client] {
      for (int i = 0; i < per_client; ++i) {
        QuerySpec spec;
        spec.dataset = "d";
        spec.kind = QueryKind::kEntropyTopK;
        spec.k = 4;
        spec.options.seed = 1 + c * 1000 + static_cast<uint64_t>(i);
        Stopwatch latency;
        if (!engine.Run(spec).ok()) std::exit(1);
        latencies[c].push_back(latency.ElapsedMillis());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const std::vector<double>& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  BurstResult result;
  result.qps = static_cast<double>(all.size()) / wall_seconds;
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  result.steals = engine.GetCounters().pool_steals;
  return result;
}

void Run(const BenchConfig& config) {
  const uint64_t rows = config.RowsOrDefault(200000);
  std::cout << "# Serving throughput: work stealing vs single queue "
               "(cdc preset, entropy top-4 bursts)\n";
  // Config line in bench_to_json key=value form; the intra-query pool
  // width is part of the measurement's identity.
  std::cout << "rows=" << rows << " reps=" << config.reps
            << " intra_threads=" << kIntraThreads
            << " host_threads=" << std::thread::hardware_concurrency()
            << " seed=" << config.seed
            << (config.quick ? " (quick)" : "") << "\n\n";

  auto made = MakePresetTable(DatasetPreset::kCdc, rows, config.seed);
  if (!made.ok()) std::exit(1);
  const Table table = made->DropHighSupportColumns(1000);

  std::cout << "## cdc\n\n";
  ReportTable report({"clients", "pool", "QPS", "p50 (ms)", "p99 (ms)",
                      "steals", "vs single-queue"});
  const int per_client = config.quick ? 3 : 8;
  for (size_t clients : {size_t{1}, size_t{4}, size_t{8}}) {
    if (config.quick && clients > 4) break;
    const BurstResult single =
        RunBurst(table, PoolMode::kSingleQueue, clients, per_client);
    const BurstResult stealing =
        RunBurst(table, PoolMode::kWorkStealing, clients, per_client);
    report.AddRow({std::to_string(clients),
                   PoolModeName(PoolMode::kSingleQueue),
                   ReportTable::FormatDouble(single.qps, 2),
                   ReportTable::FormatDouble(single.p50_ms, 2),
                   ReportTable::FormatDouble(single.p99_ms, 2),
                   std::to_string(single.steals), "1.0x"});
    report.AddRow({std::to_string(clients),
                   PoolModeName(PoolMode::kWorkStealing),
                   ReportTable::FormatDouble(stealing.qps, 2),
                   ReportTable::FormatDouble(stealing.p50_ms, 2),
                   ReportTable::FormatDouble(stealing.p99_ms, 2),
                   std::to_string(stealing.steals),
                   FormatSpeedup(stealing.qps, single.qps)});
  }
  report.PrintMarkdown(std::cout);
}

}  // namespace
}  // namespace swope

int main(int argc, char** argv) {
  swope::Run(swope::BenchConfig::FromArgs(argc, argv));
  return 0;
}
