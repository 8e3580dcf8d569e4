// Ablation: dense vs hashed joint-count layout for the MI queries.
// PairCounter picks a dense u_t*u_a array under QueryOptions::
// dense_pair_limit and the FlatHashMap above it; this study measures the
// end-to-end MI top-k cost under forced-dense, adaptive (default), and
// forced-sparse layouts.

#include <iostream>

#include "bench/bench_util.h"
#include "src/core/swope_topk_mi.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner(
      "Ablation: joint-counter layout (MI top-k, k=4, eps=0.5)", config,
      bench::kDefaultMiBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultMiBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << " (avg over " << config.targets
              << " targets)\n";
    bench::WarmColumnCounts(dataset.table);
    const auto targets =
        bench::PickTargets(dataset.table, config.targets, config.seed);
    struct Layout {
      std::string label;
      uint64_t dense_limit;
    };
    const Layout layouts[] = {
        {"forced sparse (hash everything)", 1},
        {"adaptive (default, 1M cells)", 1ULL << 20},
        {"forced dense (up to 64M cells)", 1ULL << 26}};

    ReportTable table({"layout", "time (ms)"});
    for (const Layout& layout : layouts) {
      double total = 0.0;
      for (size_t target : targets) {
        QueryOptions options;
        options.epsilon = 0.5;
        options.seed = config.seed + target;
        options.sequential_sampling = true;
        options.dense_pair_limit = layout.dense_limit;
        total += TimeRepeated(config.reps, [&] {
                   auto result =
                       SwopeTopKMi(dataset.table, target, 4, options);
                   if (!result.ok()) std::exit(1);
                 }).mean_seconds;
      }
      table.AddRow({layout.label,
                    ReportTable::FormatMillis(
                        total / static_cast<double>(targets.size()))});
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
