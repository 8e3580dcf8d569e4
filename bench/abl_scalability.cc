// Ablation: scalability in N. The exact-answer methods scan O(N) while
// SWOPE's sample size is set by the scores and epsilon, not by N
// (Theorems 2 and 4) -- so the speedup grows roughly linearly with N.
// This is the lens through which the laptop-scale reproductions should be
// read against the paper's 3.7M-33.7M-row testbed: at small N every
// method degenerates to a full scan.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/baselines/exact.h"
#include "src/core/entropy.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/eval/report.h"

namespace swope {
namespace {

// Rows of the intra-query thread sweep's table.
uint64_t SweepRows(const BenchConfig& config) {
  return config.quick ? 500000 : 2000000;
}

// One intra-query thread sweep over `query`, which runs one query with
// the given options and returns it. The answer is byte-identical at
// every thread count (docs/CORE.md), so each row is purely a latency
// point.
template <typename Query>
void AddSweepRows(const BenchConfig& config, const std::string& name,
                  QueryOptions options, Query query, ReportTable& sweep) {
  double serial_seconds = 0.0;
  for (size_t threads : {1, 2, 4, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
    Result<TopKResult> swope(Status::Internal("unset"));
    const Timing timing = TimeRepeated(config.reps, [&] {
      swope = query(options);
      if (!swope.ok()) std::exit(1);
    });
    if (threads == 1) serial_seconds = timing.mean_seconds;
    sweep.AddRow({name, std::to_string(threads),
                  ReportTable::FormatMillis(timing.mean_seconds),
                  std::to_string(swope->stats.final_sample_size),
                  FormatSpeedup(serial_seconds, timing.mean_seconds)});
  }
}

void Run(const BenchConfig& config) {
  const uint64_t max_rows = config.quick ? 500000 : 4000000;
  std::cout << "# Ablation: scalability in N (cdc preset)\n";
  // Config line in bench_to_json key=value form: the largest N of the
  // two N sweeps, and the table size of the thread sweep.
  std::cout << "rows=" << max_rows << " reps=" << config.reps
            << " seed=" << config.seed
            << " sweep_rows=" << SweepRows(config)
            << (config.quick ? " (quick)" : "") << "\n\n";

  std::cout << "## entropy-topk\n\n"
            << "Entropy top-4, eps=0.1.\n\n";
  ReportTable table({"rows", "SWOPE (ms)", "SWOPE samples",
                     "EntropyRank (ms)", "Exact (ms)", "SWOPE vs Exact"});
  for (uint64_t rows : {125000ULL, 250000ULL, 500000ULL, 1000000ULL,
                        2000000ULL, 4000000ULL}) {
    if (rows > max_rows) break;
    auto made = MakePresetTable(DatasetPreset::kCdc, rows, config.seed);
    if (!made.ok()) std::exit(1);
    const Table dataset = made->DropHighSupportColumns(1000);

    QueryOptions options;
    options.epsilon = 0.1;
    options.seed = config.seed;
    options.sequential_sampling = true;

    Result<TopKResult> swope(Status::Internal("unset"));
    const Timing swope_time = TimeRepeated(config.reps, [&] {
      swope = SwopeTopKEntropy(dataset, 4, options);
      if (!swope.ok()) std::exit(1);
    });
    const Timing rank_time = TimeRepeated(config.reps, [&] {
      if (!EntropyRankTopK(dataset, 4, options).ok()) std::exit(1);
    });
    const Timing exact_time = TimeRepeated(config.reps, [&] {
      if (!ExactTopKEntropy(dataset, 4).ok()) std::exit(1);
    });

    table.AddRow({std::to_string(rows),
                  ReportTable::FormatMillis(swope_time.mean_seconds),
                  std::to_string(swope->stats.final_sample_size),
                  ReportTable::FormatMillis(rank_time.mean_seconds),
                  ReportTable::FormatMillis(exact_time.mean_seconds),
                  FormatSpeedup(exact_time.mean_seconds,
                                swope_time.mean_seconds)});
  }
  table.PrintMarkdown(std::cout);

  // MI needs a couple hundred thousand to a few million samples before
  // its stopping rule can fire (the joint-entropy slack decays like
  // log(M)/sqrt(M)), so the SWOPE-vs-Exact gap opens later in N than for
  // plain entropy -- exactly why the paper evaluates at 3.7M-33.7M rows.
  std::cout << "\n## mi-topk\n\n"
            << "MI top-1, eps=0.5, informative target.\n\n";
  // Pick a target that actually has informative partners (MI >= 1 bit if
  // one exists); an isolated noise target forces every method to a full
  // scan at any N and says nothing about scaling.
  size_t target = 1;
  {
    auto probe = MakePresetTable(DatasetPreset::kCdc, 125000, config.seed);
    if (!probe.ok()) std::exit(1);
    const Table dataset = probe->DropHighSupportColumns(1000);
    double best_mi = -1.0;
    for (size_t t = 1; t < dataset.num_columns(); t += 9) {
      auto scores = ExactMutualInformations(dataset, t);
      if (!scores.ok()) std::exit(1);
      const double top =
          *std::max_element(scores->begin(), scores->end());
      if (top > best_mi) {
        best_mi = top;
        target = t;
      }
    }
    std::cout << "target column " << target << " (strongest partner MI "
              << ReportTable::FormatDouble(best_mi, 2) << " bits)\n\n";
  }
  ReportTable mi_table({"rows", "SWOPE (ms)", "SWOPE samples", "Exact (ms)",
                        "SWOPE vs Exact"});
  for (uint64_t rows : {250000ULL, 500000ULL, 1000000ULL, 2000000ULL,
                        4000000ULL}) {
    if (rows > max_rows) break;
    auto made = MakePresetTable(DatasetPreset::kCdc, rows, config.seed);
    if (!made.ok()) std::exit(1);
    const Table dataset = made->DropHighSupportColumns(1000);

    QueryOptions options;
    options.epsilon = 0.5;
    options.seed = config.seed;
    options.sequential_sampling = true;

    Result<TopKResult> swope(Status::Internal("unset"));
    const Timing swope_time = TimeRepeated(config.reps, [&] {
      swope = SwopeTopKMi(dataset, target, 1, options);
      if (!swope.ok()) std::exit(1);
    });
    const Timing exact_time = TimeRepeated(config.reps, [&] {
      if (!ExactTopKMi(dataset, target, 1).ok()) std::exit(1);
    });
    mi_table.AddRow({std::to_string(rows),
                     ReportTable::FormatMillis(swope_time.mean_seconds),
                     std::to_string(swope->stats.final_sample_size),
                     ReportTable::FormatMillis(exact_time.mean_seconds),
                     FormatSpeedup(exact_time.mean_seconds,
                                   swope_time.mean_seconds)});
  }
  mi_table.PrintMarkdown(std::cout);

  // Intra-query parallelism: each round's candidate updates fan out
  // across QueryOptions::pool, one task per candidate. It needs a wide
  // table (many candidates per round) to have work to split, hence the
  // 100-column cdc preset: entropy top-4 with a small epsilon to force
  // deep sampling, and MI top-4 against column 0.
  std::cout << "\n## intra-threads\n\n"
            << "Entropy top-4 (eps=0.01) and MI top-4 (target 0, eps=0.5) "
               "on "
            << SweepRows(config) << " rows.\n\n";
  {
    auto made =
        MakePresetTable(DatasetPreset::kCdc, SweepRows(config), config.seed);
    if (!made.ok()) std::exit(1);
    const Table dataset = made->DropHighSupportColumns(1000);

    QueryOptions options;
    options.seed = config.seed;
    options.sequential_sampling = true;

    ReportTable sweep({"query", "threads", "SWOPE (ms)", "SWOPE samples",
                       "vs 1 thread"});
    options.epsilon = 0.01;
    AddSweepRows(config, "entropy-top4", options,
                 [&](const QueryOptions& o) {
                   return SwopeTopKEntropy(dataset, 4, o);
                 },
                 sweep);
    options.epsilon = 0.5;
    AddSweepRows(config, "mi-top4", options,
                 [&](const QueryOptions& o) {
                   return SwopeTopKMi(dataset, 0, 4, o);
                 },
                 sweep);
    sweep.PrintMarkdown(std::cout);
  }
}

}  // namespace
}  // namespace swope

int main(int argc, char** argv) {
  swope::Run(swope::BenchConfig::FromArgs(argc, argv));
  return 0;
}
