// Figure 1 reproduction: empirical entropy top-k query time vs k.
// Series: SWOPE (eps = 0.1, the paper's default), EntropyRank, Exact.

#include <iostream>

#include "bench/bench_util.h"
#include "src/baselines/exact.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_topk_entropy.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 1: entropy top-k query time (ms)", config,
                     bench::kDefaultBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << "\n";
    ReportTable table(
        {"k", "SWOPE", "EntropyRank", "Exact", "SWOPE vs Rank",
         "SWOPE vs Exact", "SWOPE cells"});
    // The exact scan does not depend on k; time it once.
    const Timing exact_time = TimeRepeated(config.reps, [&] {
      auto result = ExactTopKEntropy(dataset.table, 1);
      if (!result.ok()) std::exit(1);
    });
    for (size_t k : {1, 2, 4, 8, 10}) {
      QueryOptions options;
      options.epsilon = 0.1;
      options.seed = config.seed;
      options.sequential_sampling = true;
      // Deterministic per (dataset, options): every rep scans the same
      // cells, so capturing the last rep's count is exact.
      uint64_t swope_cells = 0;
      const Timing swope_time = TimeRepeated(config.reps, [&] {
        auto result = SwopeTopKEntropy(dataset.table, k, options);
        if (!result.ok()) std::exit(1);
        swope_cells = result->stats.cells_scanned;
      });
      const Timing rank_time = TimeRepeated(config.reps, [&] {
        auto result = EntropyRankTopK(dataset.table, k, options);
        if (!result.ok()) std::exit(1);
      });
      table.AddRow(
          {std::to_string(k), ReportTable::FormatMillis(swope_time.mean_seconds),
           ReportTable::FormatMillis(rank_time.mean_seconds),
           ReportTable::FormatMillis(exact_time.mean_seconds),
           FormatSpeedup(rank_time.mean_seconds, swope_time.mean_seconds),
           FormatSpeedup(exact_time.mean_seconds, swope_time.mean_seconds),
           std::to_string(swope_cells)});
    }
    table.PrintMarkdown(std::cout);
    std::cout << "\n";

    // Where the time goes: one profiled run at the paper's default
    // setting (k = 8) per dataset, recorded into BENCH_results.json as
    // its own `<dataset>-stages` section.
    QueryOptions profiled;
    profiled.epsilon = 0.1;
    profiled.seed = config.seed;
    profiled.sequential_sampling = true;
    StageProfiler profiler;
    profiled.profiler = &profiler;
    if (!SwopeTopKEntropy(dataset.table, 8, profiled).ok()) std::exit(1);
    bench::PrintStageBreakdown(dataset.name, profiler);
  }
}

}  // namespace
}  // namespace swope

int main(int argc, char** argv) {
  swope::Run(swope::BenchConfig::FromArgs(argc, argv));
  return 0;
}
