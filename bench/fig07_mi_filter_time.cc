// Figure 7 reproduction: empirical mutual information filtering query
// time vs eta, averaged over random target attributes.
// Series: SWOPE (eps = 0.5, the paper's default), EntropyFilter-MI,
// Exact.

#include <iostream>

#include "bench/bench_util.h"
#include "src/baselines/exact.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_filter_mi.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 7: MI filtering query time (ms)", config,
                     bench::kDefaultMiBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultMiBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << " (avg over " << config.targets
              << " targets)\n";
    const auto targets =
        bench::PickTargets(dataset.table, config.targets, config.seed);
    double exact_total = 0.0;
    for (size_t target : targets) {
      exact_total += TimeRepeated(config.reps, [&] {
                       auto result =
                           ExactFilterMi(dataset.table, target, 0.1);
                       if (!result.ok()) std::exit(1);
                     }).mean_seconds;
    }
    const double exact_mean =
        exact_total / static_cast<double>(targets.size());

    ReportTable table({"eta", "SWOPE", "EntropyFilter", "Exact",
                       "SWOPE vs Filter", "SWOPE vs Exact", "SWOPE cells"});
    for (double eta : {0.1, 0.2, 0.3, 0.4, 0.5}) {
      double swope_total = 0.0;
      double filter_total = 0.0;
      uint64_t swope_cells = 0;  // summed over targets, like the times
      for (size_t target : targets) {
        QueryOptions options;
        options.epsilon = 0.5;
        options.seed = config.seed + target;
        options.sequential_sampling = true;
        uint64_t target_cells = 0;
        swope_total +=
            TimeRepeated(config.reps, [&] {
              auto result =
                  SwopeFilterMi(dataset.table, target, eta, options);
              if (!result.ok()) std::exit(1);
              target_cells = result->stats.cells_scanned;
            }).mean_seconds;
        swope_cells += target_cells;
        filter_total +=
            TimeRepeated(config.reps, [&] {
              auto result =
                  MiFilterQuery(dataset.table, target, eta, options);
              if (!result.ok()) std::exit(1);
            }).mean_seconds;
      }
      const double swope_mean =
          swope_total / static_cast<double>(targets.size());
      const double filter_mean =
          filter_total / static_cast<double>(targets.size());
      table.AddRow({ReportTable::FormatDouble(eta, 1),
                    ReportTable::FormatMillis(swope_mean),
                    ReportTable::FormatMillis(filter_mean),
                    ReportTable::FormatMillis(exact_mean),
                    FormatSpeedup(filter_mean, swope_mean),
                    FormatSpeedup(exact_mean, swope_mean),
                    std::to_string(swope_cells)});
    }
    table.PrintMarkdown(std::cout);
    std::cout << "\n";
  }
}

}  // namespace
}  // namespace swope

int main(int argc, char** argv) {
  swope::Run(swope::BenchConfig::FromArgs(argc, argv));
  return 0;
}
