// Figure 8 reproduction: empirical mutual information filtering accuracy
// vs eta, averaged over random target attributes. The paper reports
// identical (100%) accuracy for all methods at eps = 0.5.

#include <iostream>

#include "bench/bench_util.h"
#include "src/baselines/exact.h"
#include "src/core/entropy.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_filter_mi.h"
#include "src/eval/accuracy.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 8: MI filtering accuracy", config,
                     bench::kDefaultMiBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultMiBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << " (avg over " << config.targets
              << " targets)\n";
    const auto targets =
        bench::PickTargets(dataset.table, config.targets, config.seed);

    ReportTable table({"eta", "SWOPE", "EntropyFilter", "Exact"});
    for (double eta : {0.1, 0.2, 0.3, 0.4, 0.5}) {
      double swope_acc = 0.0;
      double filter_acc = 0.0;
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
        auto swope = SwopeFilterMi(dataset.table, target, eta, options);
        auto baseline = MiFilterQuery(dataset.table, target, eta, options);
        auto exact = ExactFilterMi(dataset.table, target, eta);
        if (!swope.ok() || !baseline.ok() || !exact.ok()) std::exit(1);
        swope_acc += FilterAccuracy(*swope, *scores, eligible, eta);
        filter_acc += FilterAccuracy(*baseline, *scores, eligible, eta);
        exact_acc += FilterAccuracy(*exact, *scores, eligible, eta);
      }
      const double n = static_cast<double>(targets.size());
      table.AddRow({ReportTable::FormatDouble(eta, 1),
                    ReportTable::FormatDouble(swope_acc / n, 3),
                    ReportTable::FormatDouble(filter_acc / n, 3),
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
