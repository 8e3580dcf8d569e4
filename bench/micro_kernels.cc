// google-benchmark microbenchmarks for the kernels on the query hot path:
// counter updates, bound evaluation, sampling, shuffling, CSV parsing.

#include <memory>
#include <sstream>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/flat_hash_map.h"
#include "src/common/thread_pool.h"
#include "src/core/bounds.h"
#include "src/core/entropy.h"
#include "src/core/frequency_counter.h"
#include "src/core/pair_counter.h"
#include "src/core/swope_topk_entropy.h"
#include "src/datagen/dataset_presets.h"
#include "src/datagen/distributions.h"
#include "src/datagen/generator.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/query_trace.h"
#include "src/table/column_view.h"
#include "src/table/csv_reader.h"
#include "src/table/csv_writer.h"
#include "src/table/fingerprint.h"
#include "src/table/shuffle.h"

namespace swope {
namespace {

Column MakeColumn(uint32_t support, uint64_t rows, uint64_t seed) {
  auto column = GenerateColumn(ColumnSpec::Zipf("z", support, 1.0), rows,
                               seed);
  if (!column.ok()) std::abort();
  return std::move(column).value();
}

// The counting kernels are timed the way the scorers call them: AddCodes
// over a gathered slice of kSliceCodes codes (items = codes), cycling
// through 2^16 pre-decoded codes.
constexpr uint64_t kSliceCodes = 4096;
constexpr uint64_t kCodeMask = (1 << 16) - 1;

void BM_FrequencyCounterAdd(benchmark::State& state) {
  const std::vector<ValueCode> codes =
      MakeColumn(64, 1 << 16, 1).codes();  // NOLINT(swope-raw-codes): setup
  FrequencyCounter counter(64);
  uint64_t offset = 0;
  for (auto _ : state) {
    counter.AddCodes(codes.data() + offset, kSliceCodes);
    offset = (offset + kSliceCodes) & kCodeMask;
  }
  benchmark::DoNotOptimize(counter.SampleEntropy());
  state.SetItemsProcessed(state.iterations() * kSliceCodes);
}
BENCHMARK(BM_FrequencyCounterAdd);

// `dense_limit` 1<<20 keeps the 64x64 domain dense from the start; 1
// keeps it hashed.
void PairCounterAdd(benchmark::State& state, uint64_t dense_limit) {
  const std::vector<ValueCode> a =
      MakeColumn(64, 1 << 16, 2).codes();  // NOLINT(swope-raw-codes): setup
  const std::vector<ValueCode> b =
      MakeColumn(64, 1 << 16, 3).codes();  // NOLINT(swope-raw-codes): setup
  PairCounter counter(64, 64, dense_limit);
  uint64_t offset = 0;
  for (auto _ : state) {
    counter.AddCodes(a.data() + offset, b.data() + offset, kSliceCodes);
    offset = (offset + kSliceCodes) & kCodeMask;
  }
  benchmark::DoNotOptimize(counter.SampleJointEntropy());
  state.SetItemsProcessed(state.iterations() * kSliceCodes);
}

void BM_PairCounterAddDense(benchmark::State& state) {
  PairCounterAdd(state, /*dense_limit=*/1 << 20);
}
BENCHMARK(BM_PairCounterAddDense);

void BM_PairCounterAddSparse(benchmark::State& state) {
  PairCounterAdd(state, /*dense_limit=*/1);
}
BENCHMARK(BM_PairCounterAddSparse);

// The round-end pass MiScorer runs per candidate: joint entropy plus the
// b-side column sums, over a counter holding 2^16 Zipf pairs.
// Arg 0 = 64x64 dense counter (4096 cells); Arg 1 = the same pairs in a
// hashed counter. items = occupied cells visited.
void BM_PairCounterEntropy(benchmark::State& state) {
  const std::vector<ValueCode> a =
      MakeColumn(64, 1 << 16, 2).codes();  // NOLINT(swope-raw-codes): setup
  const std::vector<ValueCode> b =
      MakeColumn(64, 1 << 16, 3).codes();  // NOLINT(swope-raw-codes): setup
  PairCounter counter(64, 64, state.range(0) == 0 ? 1 << 20 : 1);
  counter.AddCodes(a.data(), b.data(), a.size());
  uint64_t occupied = 0;
  for (uint32_t i = 0; i < 64; ++i) {
    for (uint32_t j = 0; j < 64; ++j) occupied += counter.count(i, j) > 0;
  }
  std::vector<uint64_t> column_sums(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.SampleJointEntropy(column_sums.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * occupied));
}
BENCHMARK(BM_PairCounterEntropy)->Arg(0)->Arg(1);

// The acceptance race for the packed storage: batch width-specialized
// gather (ColumnView::Gather) vs a per-row `code(order[i])` loop over the
// same permuted index sequence, at a realistic per-round slice size.
// Arg = support size (width 1, 6, 10 bits).
void BM_GatherDecode(benchmark::State& state) {
  constexpr uint64_t kRows = 1 << 14;
  const Column column =
      MakeColumn(static_cast<uint32_t>(state.range(0)), kRows, 21);
  const std::vector<uint32_t> order = ShuffledRowOrder(kRows, 9);
  const ColumnView view(column);
  std::vector<ValueCode> scratch(kRows);
  for (auto _ : state) {
    const ValueCode* codes = view.Gather(order, 0, kRows, scratch);
    benchmark::DoNotOptimize(codes);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GatherDecode)->Arg(2)->Arg(64)->Arg(1000);

void BM_GatherDecodePerRow(benchmark::State& state) {
  constexpr uint64_t kRows = 1 << 14;
  const Column column =
      MakeColumn(static_cast<uint32_t>(state.range(0)), kRows, 21);
  const std::vector<uint32_t> order = ShuffledRowOrder(kRows, 9);
  std::vector<ValueCode> scratch(kRows);
  for (auto _ : state) {
    for (uint64_t i = 0; i < kRows; ++i) {
      scratch[i] = column.code(order[i]);  // NOLINT(swope-raw-codes): baseline
    }
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GatherDecodePerRow)->Arg(2)->Arg(64)->Arg(1000);

// The content key the registry computes on every registration and
// ingest: TableFingerprint over the 200k-row cdc preset with the
// support > 1000 columns dropped -- the table perfbench's
// entropy_explore and ingest_refresh workloads register. items = cells.
void BM_TableFingerprint(benchmark::State& state) {
  auto made = MakePresetTable(DatasetPreset::kCdc, 200000);
  if (!made.ok()) std::abort();
  const Table table = made->DropHighSupportColumns(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TableFingerprint(table));
  }
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * table.num_rows() * table.num_columns()));
}
BENCHMARK(BM_TableFingerprint)->Unit(benchmark::kMillisecond);

void BM_FlatHashMapIncrement(benchmark::State& state) {
  FlatHashMap<uint64_t, uint64_t> map(1 << 12);
  Rng rng(7);
  std::vector<uint64_t> keys(1 << 14);
  for (auto& key : keys) key = rng.UniformU64(1 << 12);
  uint64_t i = 0;
  for (auto _ : state) {
    ++map[keys[i & 0x3fff]];
    ++i;
  }
  benchmark::DoNotOptimize(map.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatHashMapIncrement);

void BM_ExactEntropy(benchmark::State& state) {
  const Column column = MakeColumn(256, state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactEntropy(column));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExactEntropy)->Arg(1 << 14)->Arg(1 << 18);

void BM_BoundEvaluation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MakeEntropyInterval(3.0, 256, 1 << 20, 1 << 12, 1e-6));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundEvaluation);

void BM_Shuffle(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ShuffledRowOrder(static_cast<uint32_t>(state.range(0)), 11));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Shuffle)->Arg(1 << 14)->Arg(1 << 18);

void BM_AliasSampling(benchmark::State& state) {
  const auto dist = CategoricalDistribution::Zipf(1000, 1.0);
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSampling);

void BM_CsvParse(benchmark::State& state) {
  // Build a 1000-row, 10-column CSV once; parse it per iteration.
  TableSpec spec;
  spec.num_rows = 1000;
  spec.seed = 17;
  for (int j = 0; j < 10; ++j) {
    spec.columns.push_back(
        ColumnSpec::Uniform("c" + std::to_string(j), 50));
  }
  auto table = GenerateTable(spec);
  if (!table.ok()) std::abort();
  std::ostringstream csv;
  if (!WriteCsv(*table, csv).ok()) std::abort();
  const std::string text = csv.str();
  for (auto _ : state) {
    std::istringstream input(text);
    auto parsed = ReadCsv(input);
    if (!parsed.ok()) std::abort();
    benchmark::DoNotOptimize(parsed->num_rows());
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_CsvParse);

// The unified driver's per-round hot phase: fold a sample slice into one
// FrequencyCounter per candidate and recompute its entropy, fanned across
// a pool — the kernel parallelized by QueryOptions::pool. Arg = threads.
void BM_ParallelCandidateUpdate(benchmark::State& state) {
  constexpr size_t kCandidates = 32;
  constexpr uint64_t kRows = 1 << 16;
  std::vector<Column> columns;
  columns.reserve(kCandidates);
  for (size_t j = 0; j < kCandidates; ++j) {
    columns.push_back(MakeColumn(64, kRows, 100 + j));
  }
  std::vector<uint32_t> order(kRows);
  for (uint32_t i = 0; i < kRows; ++i) order[i] = i;

  const size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  std::vector<ColumnView> views;
  views.reserve(kCandidates);
  for (const Column& column : columns) views.emplace_back(column);
  std::vector<FrequencyCounter> counters(kCandidates,
                                         FrequencyCounter(64));
  std::vector<std::vector<ValueCode>> scratches(kCandidates);
  std::vector<double> entropies(kCandidates, 0.0);
  for (auto _ : state) {
    auto update = [&](size_t j) {
      const ValueCode* codes = views[j].Gather(order, 0, kRows, scratches[j]);
      counters[j].AddCodes(codes, kRows);
      entropies[j] = counters[j].SampleEntropy();
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, kCandidates, update);
    } else {
      for (size_t j = 0; j < kCandidates; ++j) update(j);
    }
    benchmark::DoNotOptimize(entropies.data());
  }
  state.SetItemsProcessed(state.iterations() * kCandidates * kRows);
}
BENCHMARK(BM_ParallelCandidateUpdate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Observability primitives in isolation: the per-update cost ceiling for
// any instrumented hot path.
void BM_CounterIncrement(benchmark::State& state) {
  Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramObserve(benchmark::State& state) {
  Histogram histogram(DefaultLatencyBucketsMs());
  double value = 0.01;
  for (auto _ : state) {
    histogram.Observe(value);
    value = value < 5000.0 ? value * 1.7 : 0.01;
  }
  benchmark::DoNotOptimize(histogram.TotalCount());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

// The tracing-overhead acceptance bench: a full SwopeTopKEntropy query
// with tracing off (Arg 0, QueryOptions::trace null -- the default) vs
// on (Arg 1). Disabled tracing costs one branch per sampling round, so
// the two timings must agree within noise (well under 1%); compare the
// per-iteration times of the two args.
void BM_MetricsOverhead(benchmark::State& state) {
  TableSpec spec;
  spec.num_rows = 1 << 16;
  spec.seed = 29;
  for (int j = 0; j < 16; ++j) {
    spec.columns.push_back(
        ColumnSpec::Zipf("z" + std::to_string(j), 64,
                         1.0 + 0.05 * static_cast<double>(j)));
  }
  auto table = GenerateTable(spec);
  if (!table.ok()) std::abort();

  const bool traced = state.range(0) != 0;
  QueryTrace trace;
  QueryOptions options;
  options.seed = 5;
  options.sequential_sampling = true;
  if (traced) options.trace = &trace;
  for (auto _ : state) {
    trace.Clear();
    auto result = SwopeTopKEntropy(*table, 4, options);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->items.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1);

// The profiler contract (docs/OBSERVABILITY.md): attaching a
// StageProfiler must stay within 1% of the unprofiled query. Arg(0) is
// the disabled path (null profiler: one branch per instrumented site,
// no clock reads), Arg(1) the enabled path (two TSC reads per stage
// span). Same workload as BM_MetricsOverhead so the two comparisons
// share a baseline.
void BM_ProfileOverhead(benchmark::State& state) {
  TableSpec spec;
  spec.num_rows = 1 << 16;
  spec.seed = 29;
  for (int j = 0; j < 16; ++j) {
    spec.columns.push_back(
        ColumnSpec::Zipf("z" + std::to_string(j), 64,
                         1.0 + 0.05 * static_cast<double>(j)));
  }
  auto table = GenerateTable(spec);
  if (!table.ok()) std::abort();

  const bool profiled = state.range(0) != 0;
  StageProfiler profiler;
  QueryOptions options;
  options.seed = 5;
  options.sequential_sampling = true;
  if (profiled) options.profiler = &profiler;
  for (auto _ : state) {
    profiler.Clear();
    auto result = SwopeTopKEntropy(*table, 4, options);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->items.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileOverhead)->Arg(0)->Arg(1);

}  // namespace
}  // namespace swope

BENCHMARK_MAIN();
