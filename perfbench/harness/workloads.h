// The benchmark's three workloads: what data each loads, how its engine
// is configured, and the seeded op sequence its closed-loop client sends.
// README.md in this directory says why each workload exists and which
// layers it loads.

#ifndef SWOPE_PERFBENCH_HARNESS_WORKLOADS_H_
#define SWOPE_PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/datagen/dataset_presets.h"
#include "src/engine/query_engine.h"
#include "src/engine/query_spec.h"

namespace perfbench {

/// One dataset a workload registers, generated from a preset.
struct DatasetInput {
  /// Registry name; also the preset's short name.
  std::string name;
  swope::DatasetPreset preset;
  uint64_t rows;
  bool mmap;
};

/// The three closed loops.
enum class Loop { kEntropyExplore, kMiSelect, kIngestRefresh };

struct WorkloadDef {
  std::string name;
  Loop loop;
  std::vector<DatasetInput> datasets;
  swope::EngineConfig config;
  /// Ops per second this workload sustains on the reference host; the
  /// measured op count is --seconds times this, so the op sequence
  /// depends on the seed and the run length, never on wall time.
  double nominal_ops_per_s;
  /// Ops run (unmeasured) by every set-up repetition.
  size_t warmup_ops;
  /// Extra rows generated beside the first dataset and held back as the
  /// pool that ingest batches are drawn from (0: no ingest).
  uint64_t donor_rows;
};

inline constexpr size_t kIngestBatchRows = 500;
/// Set-up repetitions of an untraced run; setup_s is their median.
inline constexpr size_t kSetUpReps = 5;
/// Columns with a larger support are dropped on generation: the paper's
/// preprocessing (Section 6.1).
inline constexpr uint32_t kMaxSupport = 1000;

/// The workload named `name`, or NotFound.
swope::Result<WorkloadDef> FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One serve request plus what the oracle needs to check its answer.
struct Request {
  /// The serve line, without the profile flag the traced run appends.
  std::string line;
  std::string dataset;
  swope::QueryKind kind = swope::QueryKind::kEntropyTopK;
  /// MI target column index (MI kinds only).
  size_t target = 0;
  size_t k = 0;
  double eta = 0.0;
  double epsilon = 0.1;
  /// Op index of the request this one repeats verbatim (a designed
  /// result-cache hit), or -1 for a request no earlier op sent.
  int64_t repeat_of = -1;
};

/// One closed-loop op: an optional ingest, then the requests in order.
struct Op {
  /// Ingest batch index (rows drawn from the donor pool), or -1.
  int64_t ingest_batch = -1;
  std::vector<Request> requests;
};

/// The first `count` ops of `workload`'s sequence for `seed`. The first
/// warmup_ops are the set-up warm-up; designed repeats only ever point
/// at measured ops, and every other request is distinct from all
/// earlier ones, so result-cache hits equal designed repeats exactly.
/// InvalidArgument when the workload's parameter grids hold fewer
/// distinct requests than `count` ops need.
swope::Result<std::vector<Op>> MakeOps(const WorkloadDef& workload,
                                       uint64_t seed, size_t count);

/// Number of measured ops for a run of `seconds` (at least 200, so a
/// p95 has ten samples beyond it).
size_t MeasuredOps(const WorkloadDef& workload, int seconds);

/// Paths of the generated inputs under `data_dir`.
std::string DatasetPath(const std::string& data_dir,
                        const WorkloadDef& workload,
                        const DatasetInput& dataset, uint64_t seed);
std::string DonorPath(const std::string& data_dir,
                      const WorkloadDef& workload, uint64_t seed);

/// Writes the workload's SWPB inputs for `seed` into `data_dir` unless
/// they already exist. Every seed draws the preset population from one
/// fixed structure seed and permutes its rows by `seed`.
swope::Status GenerateInputs(const std::string& data_dir,
                             const WorkloadDef& workload, uint64_t seed);

/// Removes the workload's files under `data_dir` that belong to other
/// seeds (inputs, truth files, traces): dead weight in the checkout.
void RemoveOtherSeeds(const std::string& data_dir,
                      const WorkloadDef& workload, uint64_t seed);

/// Builds ingest batch `batch` from the donor table (decimal codes, one
/// string per cell), wrapping around the pool when it runs out.
std::vector<std::vector<std::string>> MakeBatch(const swope::Table& donor,
                                                int64_t batch);

}  // namespace perfbench

#endif  // SWOPE_PERFBENCH_HARNESS_WORKLOADS_H_
