// Figure 5 reproduction: empirical mutual information top-k query time
// vs k, averaged over several random target attributes per dataset.
// Series: SWOPE (eps = 0.5, the paper's default), EntropyRank-MI, Exact.

#include <iostream>

#include "bench/bench_util.h"
#include "src/baselines/exact.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_topk_mi.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 5: MI top-k query time (ms)", config,
                     bench::kDefaultMiBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultMiBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << " (avg over " << config.targets
              << " targets)\n";
    const auto targets =
        bench::PickTargets(dataset.table, config.targets, config.seed);
    // The exact scan cost does not depend on k; time it once per target.
    double exact_total = 0.0;
    for (size_t target : targets) {
      exact_total += TimeRepeated(config.reps, [&] {
                       auto result = ExactTopKMi(dataset.table, target, 1);
                       if (!result.ok()) std::exit(1);
                     }).mean_seconds;
    }
    const double exact_mean =
        exact_total / static_cast<double>(targets.size());

    ReportTable table({"k", "SWOPE", "EntropyRank", "Exact",
                       "SWOPE vs Rank", "SWOPE vs Exact", "SWOPE cells"});
    for (size_t k : {1, 2, 4, 8, 10}) {
      double swope_total = 0.0;
      double rank_total = 0.0;
      uint64_t swope_cells = 0;  // summed over targets, like the times
      for (size_t target : targets) {
        QueryOptions options;
        options.epsilon = 0.5;
        options.seed = config.seed + target;
        options.sequential_sampling = true;
        uint64_t target_cells = 0;
        swope_total +=
            TimeRepeated(config.reps, [&] {
              auto result = SwopeTopKMi(dataset.table, target, k, options);
              if (!result.ok()) std::exit(1);
              target_cells = result->stats.cells_scanned;
            }).mean_seconds;
        swope_cells += target_cells;
        rank_total +=
            TimeRepeated(config.reps, [&] {
              auto result = MiRankTopK(dataset.table, target, k, options);
              if (!result.ok()) std::exit(1);
            }).mean_seconds;
      }
      const double swope_mean =
          swope_total / static_cast<double>(targets.size());
      const double rank_mean =
          rank_total / static_cast<double>(targets.size());
      table.AddRow({std::to_string(k),
                    ReportTable::FormatMillis(swope_mean),
                    ReportTable::FormatMillis(rank_mean),
                    ReportTable::FormatMillis(exact_mean),
                    FormatSpeedup(rank_mean, swope_mean),
                    FormatSpeedup(exact_mean, swope_mean),
                    std::to_string(swope_cells)});
    }
    table.PrintMarkdown(std::cout);
    std::cout << "\n";

    // Where the time goes: one profiled run at the paper's default
    // setting (k = 8, first target) per dataset, recorded into
    // BENCH_results.json as its own `<dataset>-stages` section.
    if (!targets.empty()) {
      QueryOptions profiled;
      profiled.epsilon = 0.5;
      profiled.seed = config.seed + targets[0];
      profiled.sequential_sampling = true;
      StageProfiler profiler;
      profiled.profiler = &profiler;
      if (!SwopeTopKMi(dataset.table, targets[0], 8, profiled).ok()) {
        std::exit(1);
      }
      bench::PrintStageBreakdown(dataset.name, profiler);
    }
  }
}

}  // namespace
}  // namespace swope

int main(int argc, char** argv) {
  swope::Run(swope::BenchConfig::FromArgs(argc, argv));
  return 0;
}
