// Figure 4 reproduction: empirical entropy filtering accuracy vs eta.
// Accuracy = fraction of attributes classified identically to the exact
// answer; the paper reports 100% at the default eps = 0.05.

#include <iostream>

#include "bench/bench_util.h"
#include "src/baselines/exact.h"
#include "src/core/entropy.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_filter_entropy.h"
#include "src/eval/accuracy.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 4: entropy filtering accuracy", config,
                     bench::kDefaultBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << "\n";
    const auto exact_scores = ExactEntropies(dataset.table);
    std::vector<size_t> eligible(dataset.table.num_columns());
    for (size_t j = 0; j < eligible.size(); ++j) eligible[j] = j;

    ReportTable table({"eta", "SWOPE acc", "SWOPE F1", "EntropyFilter acc",
                       "Exact acc"});
    for (double eta : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
      QueryOptions options;
      options.epsilon = 0.05;
      options.seed = config.seed;
      options.sequential_sampling = true;
      auto swope = SwopeFilterEntropy(dataset.table, eta, options);
      auto baseline = EntropyFilterQuery(dataset.table, eta, options);
      auto exact = ExactFilterEntropy(dataset.table, eta);
      if (!swope.ok() || !baseline.ok() || !exact.ok()) std::exit(1);
      const FilterPrf prf =
          FilterPrecisionRecall(*swope, exact_scores, eligible, eta);
      table.AddRow(
          {ReportTable::FormatDouble(eta, 1),
           ReportTable::FormatDouble(
               FilterAccuracy(*swope, exact_scores, eligible, eta), 3),
           ReportTable::FormatDouble(prf.f1, 3),
           ReportTable::FormatDouble(
               FilterAccuracy(*baseline, exact_scores, eligible, eta), 3),
           ReportTable::FormatDouble(
               FilterAccuracy(*exact, exact_scores, eligible, eta), 3)});
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
