// Ablation: decomposition of the confidence-interval width into the
// permutation deviation term (2*lambda, support-independent) and the
// Lemma 1 bias term (b(alpha), support-dependent), across sample sizes.
// Shows which term gates the stopping rules at each scale: for small M
// the bias term dominates high-support attributes, which is why the
// stopping rules must carry it (a pure-lambda rule would be unsound).
//
// The MI columns compare the two MI slacks b' at a target and candidate
// of equal support u: the paper's three sampled entropies,
// 6*lambda + b(t) + b(a) + b(t,a), against the exact-marginal interval
// the scorers use, 2*lambda + b(t,a). Both take the joint support as
// min(u*u, N) and one lambda (the same per-interval failure probability);
// the scorers' JointSupportCap can only lower the second.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "src/core/bounds.h"
#include "src/eval/report.h"

namespace swope {
namespace {

void Run(const BenchConfig& config) {
  bench::PrintBanner("Ablation: interval width decomposition", config,
                     bench::kDefaultBenchRows);
  const auto datasets =
      bench::BuildAllPresets(config, bench::kDefaultBenchRows);

  for (const auto& dataset : datasets) {
    std::cout << "## " << dataset.name << "\n";
    const uint64_t n = dataset.table.num_rows();
    const double pf = 1.0 / static_cast<double>(n);
    // Mean and max support across the pruned columns.
    uint64_t support_sum = 0;
    uint32_t support_max = 0;
    for (const Column& column : dataset.table.columns()) {
      support_sum += column.support();
      support_max = std::max(support_max, column.support());
    }
    const uint32_t support_mean =
        static_cast<uint32_t>(support_sum / dataset.table.num_columns());

    // b(t,a) for a pair of columns of support u each.
    auto joint_bias = [n](uint32_t u, uint64_t m) {
      const uint64_t pairs =
          std::min<uint64_t>(uint64_t{u} * u, std::max<uint64_t>(n, 1));
      return BiasBound(static_cast<uint32_t>(pairs), n, m);
    };

    ReportTable table({"M", "2*lambda", "b(mean u)", "b(max u)",
                       "bias share @max u", "paper MI b' (mean u)",
                       "paper MI b' (max u)", "exact-marginal MI b' (mean u)",
                       "exact-marginal MI b' (max u)"});
    for (uint64_t m = 256; m <= n; m *= 4) {
      const double lambda = PermutationLambda(n, m, pf);
      const double b_mean = BiasBound(support_mean, n, m);
      const double b_max = BiasBound(support_max, n, m);
      const double width = 2.0 * lambda + b_max;
      const double joint_mean = joint_bias(support_mean, m);
      const double joint_max = joint_bias(support_max, m);
      table.AddRow(
          {std::to_string(m), ReportTable::FormatDouble(2.0 * lambda, 4),
           ReportTable::FormatDouble(b_mean, 4),
           ReportTable::FormatDouble(b_max, 4),
           ReportTable::FormatDouble(width > 0 ? b_max / width : 0.0, 3),
           ReportTable::FormatDouble(
               6.0 * lambda + 2.0 * b_mean + joint_mean, 4),
           ReportTable::FormatDouble(6.0 * lambda + 2.0 * b_max + joint_max,
                                     4),
           ReportTable::FormatDouble(2.0 * lambda + joint_mean, 4),
           ReportTable::FormatDouble(2.0 * lambda + joint_max, 4)});
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
