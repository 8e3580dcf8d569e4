#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <utility>

#include "parallel.h"
#include "src/common/random.h"
#include "src/table/binary_io.h"
#include "src/table/column_view.h"
#include "src/table/shuffle.h"

namespace perfbench {

using swope::DatasetPreset;
using swope::QueryKind;
using swope::Result;
using swope::Rng;
using swope::Status;
using swope::Table;

namespace {

// Every seed draws the same preset population (column supports,
// distributions and correlations) and permutes its rows. Structure seeds
// alone moved cells scanned per entropy request by 1.4x and its p95
// sample size by 4x on this preset, which would drown any change the
// benchmark is meant to resolve; a row permutation still changes every
// sample SWOPE draws.
constexpr uint64_t kStructureSeed = 2021;

// Designed result-cache hits: every fourth measured entropy_explore
// request repeats one of the last kRepeatWindow distinct measured
// requests (well inside the 256-entry result cache).
constexpr size_t kRepeatEvery = 4;
constexpr size_t kRepeatWindow = 64;

// mi_select rotates over this many target columns per dataset.
constexpr size_t kMiTargets = 6;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return swope::SplitMix64Next(state);
}

std::string Fixed(double value, int digits) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

// The parsed value of a rendered number, so the oracle checks against
// exactly what the engine read from the line.
double Parsed(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

// A parameter grid drawn in seed-shuffled passes: every run draws the
// same mix of values, and only their order depends on the seed. Drawing
// independently instead let the mix itself differ between seeds, and
// with it the cost of a run.
class Cycle {
 public:
  Cycle(double first, double step, int count, int digits, Rng& rng)
      : rng_(rng) {
    for (int i = 0; i < count; ++i) {
      values_.push_back(Fixed(first + step * i, digits));
    }
    pos_ = values_.size();
  }

  const std::string& Next() {
    if (pos_ == values_.size()) {
      std::shuffle(values_.begin(), values_.end(), rng_);
      pos_ = 0;
      ++passes_;
    }
    return values_[pos_++];
  }

  /// Passes begun so far: a value drawn in the first pass was not drawn
  /// before.
  size_t passes() const { return passes_; }

 private:
  Rng& rng_;
  std::vector<std::string> values_;
  size_t pos_;
  size_t passes_ = 0;
};

// The grids: k in 1..10; entropy epsilon around the paper's 0.1, in
// [0.08, 0.12]; entropy eta in [0.5, 3.0] bits; MI eta in [0.1, 0.5].
Cycle KGrid(Rng& rng) { return Cycle(1, 1, 10, 0, rng); }
Cycle EpsilonGrid(Rng& rng) { return Cycle(0.08, 0.00005, 801, 5, rng); }
Cycle EntropyEtaGrid(Rng& rng) { return Cycle(0.5, 0.01, 251, 2, rng); }
Cycle MiEtaGrid(Rng& rng) { return Cycle(0.1, 0.005, 81, 3, rng); }

// Distinct (value, epsilon) pairs: values (k or eta) come in passes over
// their grid, and each value takes its epsilons in its own first pass
// over the epsilon grid, so no pair repeats while every epsilon pass
// lasts.
class DistinctPairs {
 public:
  DistinctPairs(Cycle values, Rng& rng)
      : values_(std::move(values)), rng_(rng) {}

  /// Draws the next pair; false once the grids hold no unused pair.
  bool Next(std::string* value, std::string* epsilon) {
    *value = values_.Next();
    auto it = epsilons_.find(*value);
    if (it == epsilons_.end()) {
      it = epsilons_.emplace(*value, EpsilonGrid(rng_)).first;
    }
    *epsilon = it->second.Next();
    return it->second.passes() == 1;
  }

 private:
  Cycle values_;
  Rng& rng_;
  std::map<std::string, Cycle> epsilons_;
};

// A run asked for more distinct requests than the workload's grids hold.
Status Exhausted(const WorkloadDef& workload, size_t built, size_t count) {
  return Status::InvalidArgument(
      workload.name + " holds distinct requests for " + std::to_string(built) +
      " ops, and this run needs " + std::to_string(count) +
      "; run it with fewer --seconds");
}

Request EntropyTopK(const std::string& dataset, const std::string& k,
                    const std::string& epsilon) {
  Request request;
  request.dataset = dataset;
  request.kind = QueryKind::kEntropyTopK;
  request.k = static_cast<size_t>(Parsed(k));
  request.epsilon = Parsed(epsilon);
  request.line = "query dataset=" + dataset + " kind=entropy-topk k=" + k +
                 " epsilon=" + epsilon;
  return request;
}

Request EntropyFilter(const std::string& dataset, const std::string& eta,
                      const std::string& epsilon) {
  Request request;
  request.dataset = dataset;
  request.kind = QueryKind::kEntropyFilter;
  request.eta = Parsed(eta);
  request.epsilon = Parsed(epsilon);
  request.line = "query dataset=" + dataset + " kind=entropy-filter eta=" +
                 eta + " epsilon=" + epsilon;
  return request;
}

Result<std::vector<Op>> EntropyExploreOps(const WorkloadDef& workload,
                                          uint64_t seed, size_t count) {
  Rng rng(Mix(seed, 1));
  DistinctPairs topk(KGrid(rng), rng), filter(EntropyEtaGrid(rng), rng);
  const std::string& dataset = workload.datasets[0].name;
  std::vector<Op> ops;
  std::vector<size_t> measured_distinct;
  size_t distinct = 0;
  for (size_t i = 0; i < count; ++i) {
    Op op;
    const bool measured = i >= workload.warmup_ops;
    if (measured && (i - workload.warmup_ops) % kRepeatEvery ==
                        kRepeatEvery - 1) {
      const size_t window = std::min(measured_distinct.size(), kRepeatWindow);
      const size_t pick =
          measured_distinct[measured_distinct.size() - 1 -
                            static_cast<size_t>(rng.UniformU64(window))];
      Request repeat = ops[pick].requests[0];
      repeat.repeat_of = static_cast<int64_t>(pick);
      op.requests.push_back(std::move(repeat));
    } else {
      // Kinds alternate so every run has the same top-k/filter mix. All
      // requests use the default sampling seed, so they share one
      // permutation.
      std::string value, epsilon;
      const bool is_topk = distinct % 2 == 0;
      if (!(is_topk ? topk : filter).Next(&value, &epsilon)) {
        return Exhausted(workload, i, count);
      }
      op.requests.push_back(is_topk ? EntropyTopK(dataset, value, epsilon)
                                    : EntropyFilter(dataset, value, epsilon));
      ++distinct;
      if (measured) measured_distinct.push_back(i);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string ColumnName(DatasetPreset preset, size_t column) {
  return swope::GetPresetInfo(preset).name + "_a" + std::to_string(column);
}

Result<std::vector<Op>> MiSelectOps(const WorkloadDef& workload,
                                    uint64_t seed, size_t count) {
  Rng rng(Mix(seed, 2));
  const size_t num_datasets = workload.datasets.size();
  // The targets are fixed, evenly spaced columns: the cost of an MI
  // query depends on its target more than on anything else, and targets
  // drawn per seed made ops_per_s differ by 1.6x between seeds. Each
  // (dataset, target) draws its k and eta in one pass over its own grid,
  // so every request is distinct.
  std::vector<std::vector<size_t>> targets(num_datasets);
  std::vector<std::vector<Cycle>> ks(num_datasets), etas(num_datasets);
  for (size_t d = 0; d < num_datasets; ++d) {
    const size_t columns =
        swope::GetPresetInfo(workload.datasets[d].preset).num_columns;
    for (size_t t = 0; t < kMiTargets; ++t) {
      targets[d].push_back((2 * t + 1) * columns / (2 * kMiTargets));
      ks[d].push_back(KGrid(rng));
      etas[d].push_back(MiEtaGrid(rng));
    }
  }
  std::vector<Op> ops;
  for (size_t i = 0; i < count; ++i) {
    // Datasets rotate every op, kinds every visit, targets every two.
    const size_t d = i % num_datasets;
    const size_t turn = i / num_datasets;
    const size_t slot = (turn / 2) % kMiTargets;
    const DatasetInput& input = workload.datasets[d];
    Request request;
    request.dataset = input.name;
    request.target = targets[d][slot];
    request.epsilon = 0.5;
    request.kind = turn % 2 == 0 ? QueryKind::kMiTopK : QueryKind::kMiFilter;
    const bool is_topk = request.kind == QueryKind::kMiTopK;
    Cycle& grid = is_topk ? ks[d][slot] : etas[d][slot];
    const std::string& value = grid.Next();
    if (grid.passes() > 1) return Exhausted(workload, i, count);
    request.line = "query dataset=" + input.name + " target=" +
                   ColumnName(input.preset, request.target);
    if (is_topk) {
      request.k = static_cast<size_t>(Parsed(value));
      request.line += " kind=mi-topk k=" + value + " epsilon=0.5";
    } else {
      request.eta = Parsed(value);
      request.line += " kind=mi-filter eta=" + value + " epsilon=0.5";
    }
    Op op;
    op.requests.push_back(std::move(request));
    ops.push_back(std::move(op));
  }
  return ops;
}

Result<std::vector<Op>> IngestRefreshOps(const WorkloadDef& workload,
                                         uint64_t seed, size_t count) {
  Rng rng(Mix(seed, 3));
  Cycle ks = KGrid(rng), epsilons = EpsilonGrid(rng);
  Cycle etas = EntropyEtaGrid(rng);
  const std::string& dataset = workload.datasets[0].name;
  std::vector<Op> ops;
  for (size_t i = 0; i < count; ++i) {
    // Each ingest changes the fingerprint, so the dashboard's three
    // requests always execute; the two top-k requests differ in k.
    Op op;
    op.ingest_batch = static_cast<int64_t>(i);
    Request first = EntropyTopK(dataset, ks.Next(), epsilons.Next());
    Request second = EntropyFilter(dataset, etas.Next(), epsilons.Next());
    Request third;
    do {
      third = EntropyTopK(dataset, ks.Next(), epsilons.Next());
    } while (third.k == first.k);
    op.requests = {std::move(first), std::move(second), std::move(third)};
    ops.push_back(std::move(op));
  }
  return ops;
}

// Engine settings shared by every workload: serial queries (the default
// intra_query_threads=1), and one executor thread. One closed-loop
// client calls Run synchronously, so the executor pool (used only by
// Submit) idles; each idle worker wakes every millisecond, and four of
// them made MI latency swing by 20% between repeats of one seed.
swope::EngineConfig ClientConfig() {
  swope::EngineConfig config;
  config.num_threads = 1;
  return config;
}

std::vector<WorkloadDef> AllWorkloads() {
  std::vector<WorkloadDef> all;

  // 200,000 rows (12 MB, inside the L3), not a table larger than the L3.
  // At 2,000,000 rows the gather waits on DRAM, which this shared host's
  // neighbours contend for: op wall time per cell scanned ranged 27-32 ns
  // over four runs of one seed. The top-k requests needing an eleventh
  // round also made up 3.2-4.7% of ops there, so p95 sat on the boundary
  // between two latency modes, and ten-seed spreads of 0.16 and 0.31
  // were measured on it. At 200,000 rows that share is 7-9%, p95 lies
  // inside the slower mode, and p95 / mean latency read 2.62-2.69 over
  // five seeds.
  WorkloadDef explore;
  explore.name = "entropy_explore";
  explore.loop = Loop::kEntropyExplore;
  explore.datasets = {{"cdc", DatasetPreset::kCdc, 200000, true}};
  explore.config = ClientConfig();
  explore.nominal_ops_per_s = 300.0;
  explore.warmup_ops = 8;
  explore.donor_rows = 0;
  all.push_back(explore);

  // Serial: with intra_query_threads=2 on 200,000-row tables, ops_per_s
  // spread 0.17-0.33 (IQR / median) over ten seeds, because three threads
  // need three free cores at once on a shared host. Run alternately on
  // five seeds, the parallel engine read 0.56 and this one 0.15. At
  // 100,000 rows, 200 serial ops take about as long as 200 parallel ops
  // took at 200,000.
  WorkloadDef mi;
  mi.name = "mi_select";
  mi.loop = Loop::kMiSelect;
  mi.datasets = {{"cdc", DatasetPreset::kCdc, 100000, false},
                 {"hus", DatasetPreset::kHus, 100000, false},
                 {"pus", DatasetPreset::kPus, 100000, false},
                 {"enem", DatasetPreset::kEnem, 100000, false}};
  mi.config = ClientConfig();
  mi.nominal_ops_per_s = 6.0;
  mi.warmup_ops = 4;
  mi.donor_rows = 0;
  all.push_back(mi);

  WorkloadDef ingest;
  ingest.name = "ingest_refresh";
  ingest.loop = Loop::kIngestRefresh;
  ingest.datasets = {{"cdc", DatasetPreset::kCdc, 200000, false}};
  ingest.config = ClientConfig();
  ingest.nominal_ops_per_s = 8.0;
  ingest.warmup_ops = 3;
  ingest.donor_rows = 150000;
  all.push_back(ingest);
  return all;
}

// Gathers rows perm[begin..end) of `table` into a new table, one column
// per task.
Result<Table> SliceRows(const Table& table, const std::vector<uint32_t>& perm,
                        uint64_t begin, uint64_t end) {
  std::vector<swope::Column> columns(table.num_columns());
  SWOPE_RETURN_NOT_OK(ParallelFor(columns.size(), [&](size_t c) -> Status {
    const swope::Column& column = table.column(c);
    std::vector<swope::ValueCode> scratch;
    const swope::ValueCode* codes =
        swope::ColumnView(column).Gather(perm, begin, end, scratch);
    std::vector<swope::ValueCode> part(codes, codes + (end - begin));
    SWOPE_ASSIGN_OR_RETURN(
        columns[c], swope::Column::Make(column.name(), column.support(),
                                        std::move(part), column.labels()));
    return Status::OK();
  }));
  return Table::Make(std::move(columns));
}

// Writes through a temporary name so an interrupted run never leaves a
// truncated input behind that a later run would trust.
Status WriteAtomically(const Table& table, const std::string& path) {
  const std::string partial = path + ".partial";
  SWOPE_RETURN_NOT_OK(swope::WriteBinaryTableFile(table, partial));
  std::error_code error;
  std::filesystem::rename(partial, path, error);
  if (error) return Status::IOError("rename " + partial + ": " + error.message());
  return Status::OK();
}

// The seed-independent population, cached across runs of one checkout.
Result<Table> Population(const std::string& data_dir, DatasetPreset preset,
                         uint64_t rows) {
  const std::string path = data_dir + "/population-" +
                           swope::GetPresetInfo(preset).name + "-" +
                           std::to_string(rows) + ".swpb";
  if (std::filesystem::exists(path)) return swope::ReadBinaryTableFile(path);
  SWOPE_ASSIGN_OR_RETURN(Table made,
                         swope::MakePresetTable(preset, rows, kStructureSeed));
  Table kept = made.DropHighSupportColumns(kMaxSupport);
  SWOPE_RETURN_NOT_OK(WriteAtomically(kept, path));
  return kept;
}

}  // namespace

Result<WorkloadDef> FindWorkload(const std::string& name) {
  for (WorkloadDef& workload : AllWorkloads()) {
    if (workload.name == name) return std::move(workload);
  }
  return Status::NotFound("unknown workload '" + name + "'");
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& workload : AllWorkloads()) {
    names.push_back(workload.name);
  }
  return names;
}

Result<std::vector<Op>> MakeOps(const WorkloadDef& workload, uint64_t seed,
                                size_t count) {
  switch (workload.loop) {
    case Loop::kEntropyExplore:
      return EntropyExploreOps(workload, seed, count);
    case Loop::kMiSelect:
      return MiSelectOps(workload, seed, count);
    case Loop::kIngestRefresh:
      return IngestRefreshOps(workload, seed, count);
  }
  return Status::Internal("unknown loop");
}

size_t MeasuredOps(const WorkloadDef& workload, int seconds) {
  const double ops = std::ceil(workload.nominal_ops_per_s * seconds);
  return std::max<size_t>(200, static_cast<size_t>(ops));
}

std::string DatasetPath(const std::string& data_dir,
                        const WorkloadDef& workload,
                        const DatasetInput& dataset, uint64_t seed) {
  return data_dir + "/" + workload.name + "-" + dataset.name + "-s" +
         std::to_string(seed) + ".swpb";
}

std::string DonorPath(const std::string& data_dir,
                      const WorkloadDef& workload, uint64_t seed) {
  return data_dir + "/" + workload.name + "-donor-s" +
         std::to_string(seed) + ".swpb";
}

Status GenerateInputs(const std::string& data_dir,
                      const WorkloadDef& workload, uint64_t seed) {
  std::error_code error;
  std::filesystem::create_directories(data_dir, error);
  if (error) return Status::IOError("mkdir " + data_dir + ": " + error.message());

  for (size_t d = 0; d < workload.datasets.size(); ++d) {
    const DatasetInput& input = workload.datasets[d];
    const bool with_donor = d == 0 && workload.donor_rows > 0;
    const std::string path = DatasetPath(data_dir, workload, input, seed);
    const std::string donor_path = DonorPath(data_dir, workload, seed);
    if (std::filesystem::exists(path) &&
        (!with_donor || std::filesystem::exists(donor_path))) {
      continue;
    }
    const uint64_t total =
        input.rows + (with_donor ? workload.donor_rows : 0);
    SWOPE_ASSIGN_OR_RETURN(Table population,
                           Population(data_dir, input.preset, total));
    const std::vector<uint32_t> perm = swope::ShuffledRowOrder(
        static_cast<uint32_t>(total), Mix(seed, 100 + d));
    SWOPE_ASSIGN_OR_RETURN(Table base,
                           SliceRows(population, perm, 0, input.rows));
    SWOPE_RETURN_NOT_OK(WriteAtomically(base, path));
    if (with_donor) {
      SWOPE_ASSIGN_OR_RETURN(Table donor,
                             SliceRows(population, perm, input.rows, total));
      SWOPE_RETURN_NOT_OK(WriteAtomically(donor, donor_path));
    }
  }

  return Status::OK();
}

void RemoveOtherSeeds(const std::string& data_dir,
                      const WorkloadDef& workload, uint64_t seed) {
  const std::string prefix = workload.name + "-";
  const std::string tag = "-s" + std::to_string(seed);
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir, error)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(prefix, 0) == 0 && file.find(tag + ".") == std::string::npos &&
        file.find(tag + "-") == std::string::npos) {
      std::filesystem::remove(entry.path(), error);
    }
  }
}

std::vector<std::vector<std::string>> MakeBatch(const Table& donor,
                                                int64_t batch) {
  const uint64_t pool = donor.num_rows();
  const uint64_t start =
      (static_cast<uint64_t>(batch) * kIngestBatchRows) % pool;
  std::vector<std::vector<std::string>> rows(
      kIngestBatchRows, std::vector<std::string>(donor.num_columns()));
  std::vector<swope::ValueCode> scratch;
  for (size_t c = 0; c < donor.num_columns(); ++c) {
    const swope::ColumnView view(donor.column(c));
    size_t filled = 0;
    while (filled < kIngestBatchRows) {
      const uint64_t begin = (start + filled) % pool;
      const uint64_t end =
          std::min<uint64_t>(pool, begin + (kIngestBatchRows - filled));
      const swope::ValueCode* codes = view.Decode(begin, end, scratch);
      for (uint64_t r = 0; r < end - begin; ++r) {
        rows[filled + r][c] = std::to_string(codes[r]);
      }
      filled += static_cast<size_t>(end - begin);
    }
  }
  return rows;
}

}  // namespace perfbench
