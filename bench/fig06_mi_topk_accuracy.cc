// Figure 6 reproduction: empirical mutual information top-k accuracy vs
// k, averaged over random target attributes. The paper reports 100% for
// all methods at the default eps = 0.5.

#include <iostream>

#include "bench/bench_util.h"
#include "src/baselines/exact.h"
#include "src/core/entropy.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_topk_mi.h"
#include "src/eval/accuracy.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 6: MI top-k accuracy", config,
                     bench::kDefaultMiBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultMiBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << " (avg over " << config.targets
              << " targets)\n";
    const auto targets =
        bench::PickTargets(dataset.table, config.targets, config.seed);

    ReportTable table({"k", "SWOPE", "EntropyRank", "Exact"});
    for (size_t k : {1, 2, 4, 8, 10}) {
      double swope_acc = 0.0;
      double rank_acc = 0.0;
      double exact_acc = 0.0;
      for (size_t target : targets) {
        auto scores = ExactMutualInformations(dataset.table, target);
        if (!scores.ok()) std::exit(1);
        std::vector<size_t> eligible;
        for (size_t j = 0; j < dataset.table.num_columns(); ++j) {
          if (j != target) eligible.push_back(j);
        }
        QueryOptions options;
        options.epsilon = 0.5;
        options.seed = config.seed + target;
        options.sequential_sampling = true;
        auto swope = SwopeTopKMi(dataset.table, target, k, options);
        auto rank = MiRankTopK(dataset.table, target, k, options);
        auto exact = ExactTopKMi(dataset.table, target, k);
        if (!swope.ok() || !rank.ok() || !exact.ok()) std::exit(1);
        swope_acc += TopKAccuracy(swope->items, *scores, eligible, k);
        rank_acc += TopKAccuracy(rank->items, *scores, eligible, k);
        exact_acc += TopKAccuracy(exact->items, *scores, eligible, k);
      }
      const double n = static_cast<double>(targets.size());
      table.AddRow({std::to_string(k),
                    ReportTable::FormatDouble(swope_acc / n, 3),
                    ReportTable::FormatDouble(rank_acc / n, 3),
                    ReportTable::FormatDouble(exact_acc / n, 3)});
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
