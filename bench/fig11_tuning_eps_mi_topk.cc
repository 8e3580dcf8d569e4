// Figure 11 reproduction: tuning eps for MI top-k (k = 4), averaged over
// random targets. The paper reports 100% accuracy at every eps and picks
// eps = 0.5.

#include <iostream>

#include "bench/bench_util.h"
#include "src/core/entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/eval/accuracy.h"
#include "src/eval/report.h"

namespace swope {
namespace {

constexpr size_t kK = 4;

void Run(const BenchConfig& config) {
  bench::PrintBanner("Figure 11: tuning eps, MI top-k (k = 4)", config,
                     bench::kDefaultMiBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultMiBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << " (avg over " << config.targets
              << " targets)\n";
    bench::WarmColumnCounts(dataset.table);
    const auto targets =
        bench::PickTargets(dataset.table, config.targets, config.seed);

    ReportTable table({"eps", "time (ms)", "accuracy"});
    for (double eps : {0.01, 0.025, 0.05, 0.1, 0.25, 0.5}) {
      double time_total = 0.0;
      double acc_total = 0.0;
      for (size_t target : targets) {
        auto scores = ExactMutualInformations(dataset.table, target);
        if (!scores.ok()) std::exit(1);
        std::vector<size_t> eligible;
        for (size_t j = 0; j < dataset.table.num_columns(); ++j) {
          if (j != target) eligible.push_back(j);
        }
        QueryOptions options;
        options.epsilon = eps;
        options.seed = config.seed + target;
        options.sequential_sampling = true;
        Result<TopKResult> last(Status::Internal("unset"));
        time_total += TimeRepeated(config.reps, [&] {
                        last = SwopeTopKMi(dataset.table, target, kK,
                                           options);
                        if (!last.ok()) std::exit(1);
                      }).mean_seconds;
        acc_total += TopKAccuracy(last->items, *scores, eligible, kK);
      }
      const double n = static_cast<double>(targets.size());
      table.AddRow({ReportTable::FormatDouble(eps, 3),
                    ReportTable::FormatMillis(time_total / n),
                    ReportTable::FormatDouble(acc_total / n, 3)});
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
