// Figure 2 reproduction: empirical entropy top-k accuracy vs k.
// Accuracy = tie-aware overlap with the exact top-k answer; the paper
// reports 100% for all three methods at the default eps = 0.1.

#include <iostream>

#include "bench/bench_util.h"
#include "src/baselines/exact.h"
#include "src/core/entropy.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_topk_entropy.h"
#include "src/eval/accuracy.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 2: entropy top-k accuracy", config,
                     bench::kDefaultBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << "\n";
    const auto exact_scores = ExactEntropies(dataset.table);
    std::vector<size_t> eligible(dataset.table.num_columns());
    for (size_t j = 0; j < eligible.size(); ++j) eligible[j] = j;

    ReportTable table({"k", "SWOPE", "EntropyRank", "Exact"});
    for (size_t k : {1, 2, 4, 8, 10}) {
      QueryOptions options;
      options.epsilon = 0.1;
      options.seed = config.seed;
      options.sequential_sampling = true;
      auto swope = SwopeTopKEntropy(dataset.table, k, options);
      auto rank = EntropyRankTopK(dataset.table, k, options);
      auto exact = ExactTopKEntropy(dataset.table, k);
      if (!swope.ok() || !rank.ok() || !exact.ok()) std::exit(1);
      table.AddRow(
          {std::to_string(k),
           ReportTable::FormatDouble(
               TopKAccuracy(swope->items, exact_scores, eligible, k), 3),
           ReportTable::FormatDouble(
               TopKAccuracy(rank->items, exact_scores, eligible, k), 3),
           ReportTable::FormatDouble(
               TopKAccuracy(exact->items, exact_scores, eligible, k), 3)});
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
