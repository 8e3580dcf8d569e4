// Figure 3 reproduction: empirical entropy filtering query time vs eta.
// Series: SWOPE (eps = 0.05, the paper's default), EntropyFilter, Exact.

#include <iostream>

#include "bench/bench_util.h"
#include "src/baselines/exact.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_filter_entropy.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 3: entropy filtering query time (ms)", config,
                     bench::kDefaultBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << "\n";
    ReportTable table({"eta", "SWOPE", "EntropyFilter", "Exact",
                       "SWOPE vs Filter", "SWOPE vs Exact", "SWOPE cells"});
    const Timing exact_time = TimeRepeated(config.reps, [&] {
      auto result = ExactFilterEntropy(dataset.table, 1.0);
      if (!result.ok()) std::exit(1);
    });
    for (double eta : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
      QueryOptions options;
      options.epsilon = 0.05;
      options.seed = config.seed;
      options.sequential_sampling = true;
      uint64_t swope_cells = 0;
      const Timing swope_time = TimeRepeated(config.reps, [&] {
        auto result = SwopeFilterEntropy(dataset.table, eta, options);
        if (!result.ok()) std::exit(1);
        swope_cells = result->stats.cells_scanned;
      });
      const Timing filter_time = TimeRepeated(config.reps, [&] {
        auto result = EntropyFilterQuery(dataset.table, eta, options);
        if (!result.ok()) std::exit(1);
      });
      table.AddRow(
          {ReportTable::FormatDouble(eta, 1),
           ReportTable::FormatMillis(swope_time.mean_seconds),
           ReportTable::FormatMillis(filter_time.mean_seconds),
           ReportTable::FormatMillis(exact_time.mean_seconds),
           FormatSpeedup(filter_time.mean_seconds, swope_time.mean_seconds),
           FormatSpeedup(exact_time.mean_seconds, swope_time.mean_seconds),
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
