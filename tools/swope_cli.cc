// swope_cli: command-line front end for the SWOPE library.
//
//   swope_cli gen      --preset=cdc --rows=100000 --out=data.swpb
//   swope_cli info     --in=data.swpb
//   swope_cli topk     --in=data.swpb --k=5 [--epsilon=0.1] [--exact]
//   swope_cli filter   --in=data.swpb --eta=2.0 [--epsilon=0.05] [--exact]
//   swope_cli mi-topk  --in=data.swpb --target=age --k=5 [--epsilon=0.5]
//   swope_cli mi-filter --in=data.swpb --target=age --eta=0.3
//
// Files ending in .csv are parsed as CSV; anything else is read/written
// as the SWPB binary column store. --max-support=U applies the paper's
// support-size pruning before querying (default 1000, 0 disables).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/exact.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/core/entropy.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_filter_mi.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/core/swope_topk_nmi.h"
#include "src/datagen/dataset_presets.h"
#include "src/engine/query_engine.h"
#include "src/engine/serve.h"
#include "src/obs/query_trace.h"
#include "src/table/append.h"
#include "src/table/binary_io.h"
#include "src/table/csv_reader.h"
#include "src/table/csv_writer.h"
#include "src/table/sketch_sidecar.h"

namespace swope {
namespace {

constexpr char kUsage[] =
    R"(usage: swope_cli <command> [flags]

commands:
  gen        generate a synthetic dataset    --preset=cdc|hus|pus|enem --rows=N --out=FILE [--seed=N]
  info       describe a dataset              --in=FILE
  convert    re-encode a dataset             --in=FILE --out=FILE
             CSV <-> SWPB in either direction; SWPB -> SWPB re-encodes
             legacy v1 files as bit-packed v2. Lossless: no column drop.
  append     append rows to a dataset        --in=FILE (--row=v1,v2,... | --rows=CSV) [--out=FILE]
             --rows is a headerless CSV of new rows (cells in column
             order); --out defaults to --in (in-place). Lossless: no
             column drop, sketch sidecars are updated incrementally.
  sketch     attach count-min sidecars       --in=FILE --out=FILE [--sketch-epsilon=E] [--sketch-threshold=U]
             builds a sidecar for every column with support > threshold
             (default epsilon 0.01, threshold 1000) and writes SWPB v3.
  topk       approximate entropy top-k       --in=FILE --k=N [--epsilon=E] [--seed=N] [--exact]
  filter     approximate entropy filtering   --in=FILE --eta=T [--epsilon=E] [--seed=N] [--exact]
  mi-topk    approximate MI top-k            --in=FILE --target=COL --k=N [--epsilon=E] [--exact]
  mi-filter  approximate MI filtering        --in=FILE --target=COL --eta=T [--epsilon=E] [--exact]
  nmi-topk   approximate normalized-MI top-k --in=FILE --target=COL --k=N [--epsilon=E]
  serve      query engine REPL: line requests on stdin, JSON on stdout
             [--threads=N] [--intra-threads=N] [--max-in-flight=N]
             [--max-waiters=N] [--pool-mode=stealing|single-queue]
             [--memory-budget-mb=N]
             [--result-cache=N] [--timeout-ms=N] [--slow-query-ms=T]
             [--event-log-capacity=N]
             --slow-query-ms captures any executed query slower than T ms
             into the event ring with its stage profile (0 disables);
             `events` reads the ring back

common flags:
  --max-support=U   drop columns with more than U distinct values before
                    querying (default 1000, or 0 -- keep everything --
                    when --sketch-epsilon is set)
  --sketch-epsilon=E    query commands: score candidates with support >
                    --sketch-threshold through a count-min sketch with
                    relative error E instead of exact counters (0, the
                    default, disables the sketch path; docs/SKETCH.md)
  --sketch-threshold=U  support above which the sketch path applies
                    (default 1000); without --sketch-epsilon, querying a
                    column with support > U is rejected
  --mmap            read --in (SWPB only) through the mmap loader: page-
                    aligned payloads are borrowed from the file mapping
                    (OS-paged) instead of copied to the heap; `info` then
                    reports the mapped-vs-resident byte split
  --threads=N       query commands: fan per-candidate counter updates out
                    across N worker threads (default 1 = serial; the answer
                    is byte-identical either way)
  --trace           SWOPE query commands: print the round-by-round
                    convergence table (round, M, lambda, max bias, active,
                    decided, cells, ms); all columns except ms are
                    deterministic for a given dataset/seed

FILE handling: *.csv is CSV with a header row; anything else is the SWPB
binary column store (written as bit-packed format v2; v1 files are still
read -- see docs/STORAGE.md).

exit codes: 0 success, 1 runtime failure (I/O, corruption, query error),
2 usage error (unknown command/flag, invalid argument). Diagnostics go to
stderr; stdout carries only results (JSON in serve mode).
)";

// Exit codes: usage errors (2) are the caller holding it wrong; runtime
// failures (1) are the environment (missing/corrupt files, ...). Keeping
// them distinct lets scripts retry the latter without re-reading --help.
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

int ExitCodeFor(const Status& status) {
  return status.IsInvalidArgument() || status.IsNotFound() ? kExitUsage
                                                           : kExitRuntime;
}

// All diagnostics go to stderr so stdout stays clean for results --
// serve-mode JSON in particular must never interleave with error text.
int Fail(const Status& status) {
  std::fprintf(stderr, "swope_cli: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

// Minimal --key=value flag map.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("unexpected argument '" + arg + "'");
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags.values_[arg] = "true";
      } else {
        flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
    return flags;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  uint64_t GetUint(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr,
                                               10);
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }
  bool GetBool(const std::string& key) const {
    return GetString(key) == "true";
  }

 private:
  std::map<std::string, std::string> values_;
};

bool IsCsvPath(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

Result<Table> LoadTable(const Flags& flags) {
  const std::string path = flags.GetString("in");
  if (path.empty()) return Status::InvalidArgument("--in=FILE is required");
  auto table = IsCsvPath(path)         ? ReadCsvFile(path)
               : flags.GetBool("mmap") ? ReadBinaryTableFileMapped(path)
                                       : ReadBinaryTableFile(path);
  if (!table.ok()) return table.status();
  // With the sketch path enabled, high-support columns are the point --
  // keep everything unless the user asked for pruning explicitly.
  const uint64_t default_max_support =
      flags.GetDouble("sketch-epsilon", 0.0) > 0.0 ? 0 : 1000;
  const uint64_t max_support =
      flags.GetUint("max-support", default_max_support);
  if (max_support > 0) {
    return std::move(*table).DropHighSupportColumns(
        static_cast<uint32_t>(max_support));
  }
  return table;
}

QueryOptions OptionsFromFlags(const Flags& flags, double default_epsilon) {
  QueryOptions options;
  options.epsilon = flags.GetDouble("epsilon", default_epsilon);
  options.seed = flags.GetUint("seed", 42);
  options.sketch_epsilon = flags.GetDouble("sketch-epsilon", 0.0);
  options.sketch_threshold = static_cast<uint32_t>(
      flags.GetUint("sketch-threshold", options.sketch_threshold));
  return options;
}

// Owns the optional intra-query worker pool (--threads=N) and the
// optional round trace (--trace) for one CLI query; both must stay alive
// until the query returns.
struct QueryRuntime {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<QueryTrace> trace;
  QueryOptions options;

  /// Prints the convergence table when --trace was given.
  void PrintTrace() const {
    if (trace != nullptr) {
      std::fputs(FormatTraceTable(*trace).c_str(), stdout);
    }
  }
};

QueryRuntime RuntimeFromFlags(const Flags& flags, double default_epsilon) {
  QueryRuntime runtime;
  runtime.options = OptionsFromFlags(flags, default_epsilon);
  const uint64_t threads = flags.GetUint("threads", 1);
  if (threads > 1) {
    runtime.pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
    runtime.options.pool = runtime.pool.get();
  }
  if (flags.GetBool("trace")) {
    runtime.trace = std::make_unique<QueryTrace>();
    runtime.options.trace = runtime.trace.get();
  }
  return runtime;
}

Result<size_t> ResolveTarget(const Table& table, const Flags& flags) {
  const std::string target = flags.GetString("target");
  if (target.empty()) {
    return Status::InvalidArgument("--target=COLUMN is required");
  }
  auto by_name = table.ColumnIndex(target);
  if (by_name.ok()) return by_name;
  // Fall back to a numeric index.
  char* end = nullptr;
  const unsigned long long index = std::strtoull(target.c_str(), &end, 10);
  if (end != target.c_str() && *end == '\0' &&
      index < table.num_columns()) {
    return static_cast<size_t>(index);
  }
  return by_name.status();
}

void PrintItems(std::span<const AttributeScore> items,
                const QueryStats& stats, double elapsed_ms) {
  for (const auto& item : items) {
    std::printf("%-20s %.6f  [%.6f, %.6f]\n", item.name.c_str(),
                item.estimate, item.lower, item.upper);
  }
  std::printf("-- %zu attributes, %.1f ms, sampled %llu rows in %u "
              "iterations\n",
              items.size(), elapsed_ms,
              static_cast<unsigned long long>(stats.final_sample_size),
              stats.iterations);
}

int CmdGen(const Flags& flags) {
  auto preset = ParseDatasetPreset(flags.GetString("preset", "cdc"));
  if (!preset.ok()) return Fail(preset.status());
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("--out=FILE is required"));
  }
  auto table = MakePresetTable(*preset, flags.GetUint("rows", 0),
                               flags.GetUint("seed", 2021));
  if (!table.ok()) return Fail(table.status());
  const Status status = IsCsvPath(out) ? WriteCsvFile(*table, out)
                                       : WriteBinaryTableFile(*table, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %llu x %zu table to %s\n",
              static_cast<unsigned long long>(table->num_rows()),
              table->num_columns(), out.c_str());
  return 0;
}

// Lossless re-encode: unlike the query commands, convert never applies
// --max-support pruning -- the output holds exactly the input's columns.
int CmdConvert(const Flags& flags) {
  const std::string in = flags.GetString("in");
  if (in.empty()) {
    return Fail(Status::InvalidArgument("--in=FILE is required"));
  }
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("--out=FILE is required"));
  }
  auto table = IsCsvPath(in) ? ReadCsvFile(in) : ReadBinaryTableFile(in);
  if (!table.ok()) return Fail(table.status());
  const Status status = IsCsvPath(out) ? WriteCsvFile(*table, out)
                                       : WriteBinaryTableFile(*table, out);
  if (!status.ok()) return Fail(status);
  std::printf("converted %s -> %s (%llu rows, %zu columns)\n", in.c_str(),
              out.c_str(),
              static_cast<unsigned long long>(table->num_rows()),
              table->num_columns());
  return 0;
}

// Splits one append row on commas (no quoting). Empty cells are kept.
std::vector<std::string> SplitRow(const std::string& text) {
  std::vector<std::string> cells;
  size_t begin = 0;
  while (true) {
    const size_t comma = text.find(',', begin);
    if (comma == std::string::npos) {
      cells.push_back(text.substr(begin));
      return cells;
    }
    cells.push_back(text.substr(begin, comma - begin));
    begin = comma + 1;
  }
}

// Gathers new rows from --row (one inline row) and/or --rows (headerless
// CSV file, one row per line; blank lines and #-comments are skipped).
Result<std::vector<std::vector<std::string>>> RowsFromFlags(
    const Flags& flags) {
  std::vector<std::vector<std::string>> rows;
  if (const std::string inline_row = flags.GetString("row");
      !inline_row.empty()) {
    rows.push_back(SplitRow(inline_row));
  }
  if (const std::string path = flags.GetString("rows"); !path.empty()) {
    std::ifstream file(path);
    if (!file) return Status::IOError("cannot open '" + path + "'");
    std::string line;
    while (std::getline(file, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] == '#') continue;
      rows.push_back(SplitRow(line));
    }
  }
  if (rows.empty()) {
    return Status::InvalidArgument(
        "--row=v1,v2,... or --rows=FILE is required");
  }
  return rows;
}

// Lossless like convert: append never applies --max-support pruning, and
// sketch sidecars absorb the new rows instead of being rebuilt.
int CmdAppend(const Flags& flags) {
  const std::string in = flags.GetString("in");
  if (in.empty()) {
    return Fail(Status::InvalidArgument("--in=FILE is required"));
  }
  const std::string out = flags.GetString("out", in);
  auto rows = RowsFromFlags(flags);
  if (!rows.ok()) return Fail(rows.status());
  auto table = IsCsvPath(in) ? ReadCsvFile(in) : ReadBinaryTableFile(in);
  if (!table.ok()) return Fail(table.status());
  auto appended = AppendRowsToTable(*table, *rows);
  if (!appended.ok()) return Fail(appended.status());
  const Status status = IsCsvPath(out) ? WriteCsvFile(*appended, out)
                                       : WriteBinaryTableFile(*appended, out);
  if (!status.ok()) return Fail(status);
  std::printf("appended %zu rows: %s -> %s (%llu rows, %zu columns)\n",
              rows->size(), in.c_str(), out.c_str(),
              static_cast<unsigned long long>(appended->num_rows()),
              appended->num_columns());
  return 0;
}

// Attaches count-min sidecars to high-support columns and writes SWPB v3
// (CSV output would silently drop them, so it is rejected).
int CmdSketch(const Flags& flags) {
  const std::string in = flags.GetString("in");
  if (in.empty()) {
    return Fail(Status::InvalidArgument("--in=FILE is required"));
  }
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("--out=FILE is required"));
  }
  if (IsCsvPath(out)) {
    return Fail(Status::InvalidArgument(
        "--out must be an SWPB file (CSV cannot carry sketch sidecars)"));
  }
  auto table = IsCsvPath(in) ? ReadCsvFile(in) : ReadBinaryTableFile(in);
  if (!table.ok()) return Fail(table.status());
  const double epsilon = flags.GetDouble("sketch-epsilon", 0.01);
  const uint32_t threshold =
      static_cast<uint32_t>(flags.GetUint("sketch-threshold", 1000));
  auto sketched = AttachSketches(*std::move(table), epsilon, /*delta=*/0.01,
                                 threshold, flags.GetUint("seed", 0));
  if (!sketched.ok()) return Fail(sketched.status());
  const Status status = WriteBinaryTableFile(*sketched, out);
  if (!status.ok()) return Fail(status);
  std::printf("sketched %s -> %s (%llu sidecar bytes)\n", in.c_str(),
              out.c_str(),
              static_cast<unsigned long long>(sketched->SketchMemoryBytes()));
  return 0;
}

int CmdInfo(const Flags& flags) {
  // Describe the file as stored: no --max-support pruning (a sketched
  // v3 file's whole point is its high-support columns).
  const std::string in = flags.GetString("in");
  if (in.empty()) {
    return Fail(Status::InvalidArgument("--in=FILE is required"));
  }
  auto table = IsCsvPath(in)           ? ReadCsvFile(in)
               : flags.GetBool("mmap") ? ReadBinaryTableFileMapped(in)
                                       : ReadBinaryTableFile(in);
  if (!table.ok()) return Fail(table.status());
  std::printf("rows:    %llu\ncolumns: %zu\nmax u:   %u\nmemory:  %llu\n",
              static_cast<unsigned long long>(table->num_rows()),
              table->num_columns(), table->MaxSupport(),
              static_cast<unsigned long long>(table->MemoryBytes()));
  // Byte split for mapped loads: `memory` above is heap-resident only;
  // payloads borrowed from the file mapping are OS-paged.
  if (table->MappedBytes() > 0) {
    std::printf("mapped:  %llu\n",
                static_cast<unsigned long long>(table->MappedBytes()));
  }
  if (table->SketchMemoryBytes() > 0) {
    std::printf("sketch:  %llu\n", static_cast<unsigned long long>(
                                       table->SketchMemoryBytes()));
  }
  std::printf("%-20s %-10s %s\n", "column", "support", "entropy(bits)");
  for (const Column& column : table->columns()) {
    std::printf("%-20s %-10u %.4f%s\n", column.name().c_str(),
                column.support(), ExactEntropy(column),
                column.has_sketch() ? "  [sketch]" : "");
  }
  return 0;
}

int CmdTopK(const Flags& flags) {
  auto table = LoadTable(flags);
  if (!table.ok()) return Fail(table.status());
  const size_t k = flags.GetUint("k", 5);
  Stopwatch watch;
  if (flags.GetBool("exact")) {
    auto result = ExactTopKEntropy(*table, k);
    if (!result.ok()) return Fail(result.status());
    PrintItems(result->items, result->stats, watch.ElapsedMillis());
    return 0;
  }
  const QueryRuntime runtime = RuntimeFromFlags(flags, 0.1);
  auto result = SwopeTopKEntropy(*table, k, runtime.options);
  if (!result.ok()) return Fail(result.status());
  PrintItems(result->items, result->stats, watch.ElapsedMillis());
  runtime.PrintTrace();
  return 0;
}

int CmdFilter(const Flags& flags) {
  auto table = LoadTable(flags);
  if (!table.ok()) return Fail(table.status());
  const double eta = flags.GetDouble("eta", 1.0);
  Stopwatch watch;
  if (flags.GetBool("exact")) {
    auto result = ExactFilterEntropy(*table, eta);
    if (!result.ok()) return Fail(result.status());
    PrintItems(result->items, result->stats, watch.ElapsedMillis());
    return 0;
  }
  const QueryRuntime runtime = RuntimeFromFlags(flags, 0.05);
  auto result = SwopeFilterEntropy(*table, eta, runtime.options);
  if (!result.ok()) return Fail(result.status());
  PrintItems(result->items, result->stats, watch.ElapsedMillis());
  runtime.PrintTrace();
  return 0;
}

int CmdMiTopK(const Flags& flags) {
  auto table = LoadTable(flags);
  if (!table.ok()) return Fail(table.status());
  auto target = ResolveTarget(*table, flags);
  if (!target.ok()) return Fail(target.status());
  const size_t k = flags.GetUint("k", 5);
  Stopwatch watch;
  if (flags.GetBool("exact")) {
    auto result = ExactTopKMi(*table, *target, k);
    if (!result.ok()) return Fail(result.status());
    PrintItems(result->items, result->stats, watch.ElapsedMillis());
    return 0;
  }
  const QueryRuntime runtime = RuntimeFromFlags(flags, 0.5);
  auto result = SwopeTopKMi(*table, *target, k, runtime.options);
  if (!result.ok()) return Fail(result.status());
  PrintItems(result->items, result->stats, watch.ElapsedMillis());
  runtime.PrintTrace();
  return 0;
}

int CmdMiFilter(const Flags& flags) {
  auto table = LoadTable(flags);
  if (!table.ok()) return Fail(table.status());
  auto target = ResolveTarget(*table, flags);
  if (!target.ok()) return Fail(target.status());
  const double eta = flags.GetDouble("eta", 0.1);
  Stopwatch watch;
  if (flags.GetBool("exact")) {
    auto result = ExactFilterMi(*table, *target, eta);
    if (!result.ok()) return Fail(result.status());
    PrintItems(result->items, result->stats, watch.ElapsedMillis());
    return 0;
  }
  const QueryRuntime runtime = RuntimeFromFlags(flags, 0.5);
  auto result = SwopeFilterMi(*table, *target, eta, runtime.options);
  if (!result.ok()) return Fail(result.status());
  PrintItems(result->items, result->stats, watch.ElapsedMillis());
  runtime.PrintTrace();
  return 0;
}

int CmdNmiTopK(const Flags& flags) {
  auto table = LoadTable(flags);
  if (!table.ok()) return Fail(table.status());
  auto target = ResolveTarget(*table, flags);
  if (!target.ok()) return Fail(target.status());
  const size_t k = flags.GetUint("k", 5);
  Stopwatch watch;
  const QueryRuntime runtime = RuntimeFromFlags(flags, 0.5);
  auto result = SwopeTopKNmi(*table, *target, k, runtime.options);
  if (!result.ok()) return Fail(result.status());
  PrintItems(result->items, result->stats, watch.ElapsedMillis());
  runtime.PrintTrace();
  return 0;
}

int CmdServe(const Flags& flags) {
  EngineConfig config;
  config.num_threads = static_cast<size_t>(flags.GetUint("threads", 4));
  config.intra_query_threads =
      static_cast<size_t>(flags.GetUint("intra-threads", 1));
  config.max_in_flight =
      static_cast<size_t>(flags.GetUint("max-in-flight", 8));
  config.max_admission_waiters =
      static_cast<size_t>(flags.GetUint("max-waiters", 0));
  const std::string pool_mode = flags.GetString("pool-mode");
  if (!pool_mode.empty() && !ParsePoolMode(pool_mode, &config.pool_mode)) {
    return Fail(Status::InvalidArgument(
        "--pool-mode wants 'stealing' or 'single-queue', got '" + pool_mode +
        "'"));
  }
  config.memory_budget_bytes =
      flags.GetUint("memory-budget-mb", 0) * (1ULL << 20);
  config.result_cache_capacity =
      static_cast<size_t>(flags.GetUint("result-cache", 256));
  config.default_timeout_ms = flags.GetUint("timeout-ms", 0);
  config.slow_query_ms = flags.GetDouble("slow-query-ms", 0.0);
  config.event_log_capacity = static_cast<size_t>(
      flags.GetUint("event-log-capacity", EventLog::kDefaultCapacity));
  QueryEngine engine(config);
  // Per-request failures are reported in-band as {"ok":false,...} JSON;
  // reaching EOF (or quit) with the transport intact is a success.
  ServeLoop(engine, std::cin, std::cout);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string command = argv[1];
  auto flags = Flags::Parse(argc, argv, 2);
  if (!flags.ok()) return Fail(flags.status());

  if (command == "gen") return CmdGen(*flags);
  if (command == "convert") return CmdConvert(*flags);
  if (command == "append") return CmdAppend(*flags);
  if (command == "sketch") return CmdSketch(*flags);
  if (command == "info") return CmdInfo(*flags);
  if (command == "topk") return CmdTopK(*flags);
  if (command == "filter") return CmdFilter(*flags);
  if (command == "mi-topk") return CmdMiTopK(*flags);
  if (command == "mi-filter") return CmdMiFilter(*flags);
  if (command == "nmi-topk") return CmdNmiTopK(*flags);
  if (command == "serve") return CmdServe(*flags);
  if (command == "help" || command == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  std::fputs(kUsage, stderr);
  std::fprintf(stderr, "swope_cli: unknown command '%s'\n", command.c_str());
  return kExitUsage;
}

}  // namespace
}  // namespace swope

int main(int argc, char** argv) { return swope::Main(argc, argv); }
