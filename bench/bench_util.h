// Shared helpers for the figure-reproduction bench binaries.
//
// Every binary accepts --rows= --reps= --targets= --seed= --quick (see
// eval/experiment.h) and prints one markdown table per dataset with the
// same series the corresponding paper figure plots.

#ifndef SWOPE_BENCH_BENCH_UTIL_H_
#define SWOPE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/datagen/dataset_presets.h"
#include "src/eval/experiment.h"
#include "src/eval/report.h"
#include "src/obs/profiler.h"
#include "src/table/table.h"

namespace swope {
namespace bench {

/// Default row count for the scaled-down presets used by the bench
/// binaries (the paper's datasets have 3.7M-33.7M rows; see DESIGN.md).
/// The SWOPE-vs-baseline gap grows with N -- the sampling algorithms'
/// costs are roughly N-independent while the exact-answer baselines scan
/// O(N) -- so benches default to the largest size that keeps the whole
/// suite comfortable on a laptop. Use --rows= to rescale.
inline constexpr uint64_t kDefaultBenchRows = 2000000;
/// MI benches: the MI stopping rules need roughly 200k-500k samples on
/// census-like MI levels regardless of N, so the SWOPE-vs-baseline gap
/// only shows at N well past that; 2M is the smallest size where the
/// paper's shape is visible while keeping the suite laptop friendly.
inline constexpr uint64_t kDefaultMiBenchRows = 2000000;

/// A materialized bench dataset.
struct BenchDataset {
  std::string name;
  Table table;
};

/// Builds all four paper presets at the configured scale, applying the
/// paper's support-size <= 1000 preprocessing. Exits on generation errors
/// (bench binaries have no caller to propagate to).
inline std::vector<BenchDataset> BuildAllPresets(const BenchConfig& config,
                                                 uint64_t default_rows) {
  std::vector<BenchDataset> datasets;
  for (DatasetPreset preset : AllDatasetPresets()) {
    const PresetInfo info = GetPresetInfo(preset);
    auto table =
        MakePresetTable(preset, config.RowsOrDefault(default_rows),
                        config.seed);
    if (!table.ok()) {
      std::fprintf(stderr, "failed to build preset %s: %s\n",
                   info.name.c_str(), table.status().ToString().c_str());
      std::exit(1);
    }
    datasets.push_back({info.name,
                        table->DropHighSupportColumns(1000)});
  }
  return datasets;
}

/// Deterministic target-attribute choices for the MI benches: spread
/// across the column range, `count` of them.
inline std::vector<size_t> PickTargets(const Table& table, int count,
                                       uint64_t seed) {
  std::vector<size_t> targets;
  const size_t h = table.num_columns();
  if (h == 0) return targets;
  for (int i = 0; i < count; ++i) {
    targets.push_back((seed + 1 + static_cast<size_t>(i) * 37) % h);
  }
  return targets;
}

/// Prints one query's stage breakdown as its own `## <dataset>-stages`
/// section (no parentheses in the heading: tools/bench_to_json.py strips
/// a trailing parenthesized note, and these sections must parse as
/// distinct datasets). One row per recorded stage plus a stage-sum row;
/// the `share` column is each stage's fraction of the stage sum.
inline void PrintStageBreakdown(const std::string& dataset_name,
                                const StageProfiler& profiler) {
  std::cout << "## " << dataset_name << "-stages\n";
  ReportTable table({"stage", "calls", "ms", "share"});
  const double sum_ms = profiler.StageSumMs();
  char buffer[64];
  for (size_t i = 0; i < kNumStages; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const uint64_t calls = profiler.StageCalls(stage);
    if (calls == 0) continue;
    const double ms = profiler.StageMs(stage);
    std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
    std::string ms_text = buffer;
    std::snprintf(buffer, sizeof(buffer), "%.1f%%",
                  sum_ms > 0 ? 100.0 * ms / sum_ms : 0.0);
    table.AddRow({StageName(stage), std::to_string(calls),
                  std::move(ms_text), buffer});
  }
  std::snprintf(buffer, sizeof(buffer), "%.3f", sum_ms);
  table.AddRow({"stage-sum", "", buffer, "100.0%"});
  table.PrintMarkdown(std::cout);
  std::cout << "\n";
}

/// Prints the standard bench banner.
inline void PrintBanner(const std::string& title, const BenchConfig& config,
                        uint64_t default_rows) {
  std::cout << "# " << title << "\n";
  std::cout << "rows=" << config.RowsOrDefault(default_rows)
            << " reps=" << config.reps << " targets=" << config.targets
            << " seed=" << config.seed
            << (config.quick ? " (quick)" : "") << "\n\n";
}

}  // namespace bench
}  // namespace swope

#endif  // SWOPE_BENCH_BENCH_UTIL_H_
