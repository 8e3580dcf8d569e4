// perfbench_harness: the benchmark's one process per step.
//
//   perfbench_harness gen --workload W --seed N --data-dir D
//       writes the workload's SWPB inputs for seed N (kept across runs
//       of one checkout, removed when another seed replaces them).
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         --data-dir D
//       sets the engine up (median of several set-ups), runs the
//       workload's closed loop through HandleRequestLine, checks every
//       answer, and prints the end-to-end (trace 0) or per-layer
//       (trace 1) metrics; the last stdout line is the result JSON.
//   perfbench_harness selftest --data-dir D
//       checks the benchmark's own logic.
//
// Inputs are generated in their own process so the run's peak RSS is
// the engine's, not the generator's.

#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "json.h"
#include "oracle.h"
#include "spans.h"
#include "src/common/stopwatch.h"
#include "src/engine/query_engine.h"
#include "src/engine/serve.h"
#include "src/obs/profiler.h"
#include "src/table/append.h"
#include "src/table/binary_io.h"
#include "src/table/fingerprint.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using swope::EngineCounters;
using swope::QueryEngine;
using swope::Stopwatch;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir = ".perfbench_data";
};

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_harness: " << message << "\n";
  std::exit(2);
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Reads a file once so a mapped load measures the program, not the disk.
void WarmPageCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::vector<char> buffer(1 << 20);
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
  }
}

/// Facts about one executed (not cache-hit) query, read from its reply.
struct Executed {
  double cells = 0.0;
  double sample_fraction = 0.0;
  double rounds = 0.0;
  bool exhausted = false;
  std::array<double, swope::kNumStages> stage_ms{};
  double stage_sum_ms = 0.0;
  double wall_ms = 0.0;
  /// The dataset state and target its answer was checked against.
  std::string truth_key;
};

struct PhaseResult {
  std::vector<double> latency_ms;
  double busy_ms = 0.0;
  double cpu_ms = 0.0;
  std::vector<double> setup_s;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;
  size_t designed_hits = 0;
  EngineCounters before;
  EngineCounters after;
  std::vector<Executed> executed;
  double arena_kib = 0.0;
  double resident_mib = 0.0;
  double mapped_mib = 0.0;
  // Traced phase only: ops a child span outlasted, ops whose own self
  // time broke its tolerance, and the op self time summed and at most.
  size_t accounting_failures = 0;
  size_t unaccounted_ops = 0;
  double unaccounted_ms = 0.0;
  double max_unaccounted_ms = 0.0;
};

double GaugeValue(const QueryEngine& engine, const std::string& name) {
  const auto snapshot = ParseJson(engine.metrics().RenderJson());
  if (!snapshot) return 0.0;
  const Json* gauges = snapshot->Find("gauges");
  return gauges != nullptr ? gauges->Number(name) : 0.0;
}

swope::DatasetHandle Registered(QueryEngine& engine, const std::string& name) {
  auto handle = engine.registry().Get(name);
  if (!handle.ok()) Die("registry: " + handle.status().ToString());
  return *handle;
}

// Replaces the first item's estimate with -1, an answer no exact score
// can certify.
void Corrupt(std::string& reply) {
  const std::string key = "\"estimate\":";
  const size_t at = reply.find(key);
  if (at == std::string::npos) return;
  const size_t begin = at + key.size();
  reply.replace(begin, reply.find(',', begin) - begin, "-1");
}

class Phase {
 public:
  Phase(const WorkloadDef& workload, const Args& args,
        const std::vector<Op>& ops, const swope::Table* donor,
        const Oracle& oracle, SpanRecorder* spans)
      : workload_(workload),
        args_(args),
        ops_(ops),
        donor_(donor),
        oracle_(oracle),
        spans_(spans) {
    for (const Op& op : ops_) {
      for (const Request& request : op.requests) {
        if (request.repeat_of >= 0) {
          repeated_.insert(static_cast<size_t>(request.repeat_of));
        }
      }
    }
  }

  /// Self-test seam: the first reply of measured op `op` gets a wrong
  /// estimate before it is checked.
  void CorruptOp(size_t op) { corrupt_op_ = op; }

  PhaseResult Run(size_t setup_reps) {
    std::unique_ptr<QueryEngine> engine;
    for (size_t rep = 0; rep < setup_reps; ++rep) {
      engine.reset();
      engine = SetUp();
    }

    result_.before = engine->GetCounters();
    for (size_t i = workload_.warmup_ops; i < ops_.size(); ++i) {
      RunMeasured(*engine, i);
    }
    result_.after = engine->GetCounters();
    if (workload_.donor_rows > 0 &&
        Registered(*engine, workload_.datasets[0].name)->fingerprint !=
            oracle_.final_fingerprint()) {
      result_.problems.push_back(
          "final table differs from the replay the truths were computed on");
    }
    const auto stats = engine->registry().GetStats();
    result_.resident_mib =
        static_cast<double>(stats.resident_bytes) / (1024.0 * 1024.0);
    result_.mapped_mib =
        static_cast<double>(stats.mapped_bytes) / (1024.0 * 1024.0);
    result_.arena_kib = GaugeValue(*engine, "swope_query_arena_bytes") / 1024.0;
    if (result_.after.result_cache_hits - result_.before.result_cache_hits !=
        result_.designed_hits) {
      result_.problems.push_back(
          "result-cache hits " +
          std::to_string(result_.after.result_cache_hits -
                         result_.before.result_cache_hits) +
          " != designed repeats " + std::to_string(result_.designed_hits));
    }
    return std::move(result_);
  }

 private:
  struct OpRun {
    double latency_ms = 0.0;
    double cpu_ms = 0.0;
    swope::Status ingest = swope::Status::OK();
    std::vector<std::string> replies;
    int64_t op_span = -1;
    std::vector<int64_t> serve_spans;
  };

  // The timed part of an op: the ingest (if any) and every request,
  // back to back. Inputs are built before and checks run after.
  OpRun Execute(QueryEngine& engine, const Op& op,
                const std::vector<std::vector<std::string>>& batch,
                const std::vector<std::string>& lines, int64_t index,
                SpanRecorder* spans) {
    OpRun run;
    run.replies.reserve(lines.size());
    const double cpu_before = ProcessCpuMs();
    Stopwatch watch;
    if (spans != nullptr) run.op_span = spans->Begin("op", -1, index);
    if (op.ingest_batch >= 0) {
      const int64_t span =
          spans != nullptr ? spans->Begin("engine.ingest", run.op_span, index)
                           : -1;
      run.ingest = engine.Ingest(workload_.datasets[0].name, batch);
      if (spans != nullptr) spans->End(span);
    }
    for (const std::string& line : lines) {
      const int64_t span =
          spans != nullptr ? spans->Begin("engine.serve", run.op_span, index)
                           : -1;
      bool quit = false;
      run.replies.push_back(swope::HandleRequestLine(engine, line, &quit));
      if (spans != nullptr) {
        spans->End(span);
        run.serve_spans.push_back(span);
      }
    }
    if (spans != nullptr) spans->End(run.op_span);
    run.latency_ms = watch.ElapsedMillis();
    run.cpu_ms = ProcessCpuMs() - cpu_before;
    return run;
  }

  std::vector<std::vector<std::string>> Batch(const Op& op) const {
    if (op.ingest_batch < 0) return {};
    return MakeBatch(*donor_, op.ingest_batch);
  }

  std::vector<std::string> Lines(const Op& op, bool profile) const {
    std::vector<std::string> lines;
    for (const Request& request : op.requests) {
      lines.push_back(request.line + (profile ? " profile=1" : ""));
    }
    return lines;
  }

  // Engine construction, registration from the warm SWPB files, and the
  // warm-up ops; harness work (building batches, checking) is excluded.
  std::unique_ptr<QueryEngine> SetUp() {
    double setup_ms = 0.0;
    Stopwatch watch;
    auto engine = std::make_unique<QueryEngine>(workload_.config);
    for (const DatasetInput& input : workload_.datasets) {
      const swope::Status status = engine->RegisterDatasetFile(
          input.name, DatasetPath(args_.data_dir, workload_, input, args_.seed),
          kMaxSupport, /*sketch_epsilon=*/0.0, /*sketch_threshold=*/1000,
          input.mmap);
      if (!status.ok()) Die("register " + input.name + ": " + status.ToString());
    }
    setup_ms += watch.ElapsedMillis();
    for (size_t i = 0; i < workload_.warmup_ops && i < ops_.size(); ++i) {
      const auto batch = Batch(ops_[i]);
      const OpRun run = Execute(*engine, ops_[i], batch,
                                Lines(ops_[i], false),
                                static_cast<int64_t>(i), nullptr);
      setup_ms += run.latency_ms;
      if (!run.ingest.ok()) Die("warm-up ingest: " + run.ingest.ToString());
      for (const std::string& reply : run.replies) {
        if (reply.rfind("{\"ok\":true", 0) != 0) Die("warm-up: " + reply);
      }
    }
    result_.setup_s.push_back(setup_ms / 1e3);
    return engine;
  }

  void RunMeasured(QueryEngine& engine, size_t i) {
    const Op& op = ops_[i];
    const int64_t index = static_cast<int64_t>(i);
    const auto batch = Batch(op);
    const auto lines = Lines(op, spans_ != nullptr);
    OpRun run = Execute(engine, op, batch, lines, index, spans_);
    if (i == corrupt_op_) Corrupt(run.replies[0]);
    result_.latency_ms.push_back(run.latency_ms);
    result_.busy_ms += run.latency_ms;
    result_.cpu_ms += run.cpu_ms;
    ++result_.attempted;

    std::string why;
    bool ok = run.ingest.ok();
    if (!ok) why = "ingest: " + run.ingest.ToString();
    for (size_t r = 0; ok && r < op.requests.size(); ++r) {
      ok = CheckReply(engine, op.requests[r], run.replies[r], i,
                      spans_ != nullptr ? run.serve_spans[r] : -1, &why);
    }
    if (!ok) {
      ++result_.failed;
      if (result_.problems.size() < 5) {
        result_.problems.push_back("op " + std::to_string(i) + ": " + why);
      }
    }

    if (spans_ != nullptr) Account(run);
  }

  bool CheckReply(QueryEngine& engine, const Request& request,
                  const std::string& reply, size_t op_index, int64_t span,
                  std::string* why) {
    const auto parsed = ParseJson(reply);
    if (!parsed) {
      *why = "unparseable reply";
      return false;
    }
    const bool hit = parsed->Bool("cache_hit");
    if (request.repeat_of >= 0) {
      ++result_.designed_hits;
      const auto original =
          originals_.find(static_cast<size_t>(request.repeat_of));
      if (!hit || original == originals_.end() ||
          CacheComparable(reply) != original->second) {
        *why = "repeat of op " + std::to_string(request.repeat_of) +
               " is not a byte-identical cache hit";
        return false;
      }
    } else if (hit) {
      *why = "unexpected cache hit";
      return false;
    } else if (repeated_.count(op_index) > 0) {
      originals_[op_index] = CacheComparable(reply);
    }

    const uint64_t rows = Registered(engine, request.dataset)->table.num_rows();
    const std::string key = TruthKey(workload_, op_index, request);
    auto truth = oracle_.Get(key, rows);
    if (!truth.ok()) {
      *why = truth.status().ToString();
      return false;
    }
    if (!CheckAnswer(*parsed, request, **truth, why)) return false;
    if (!hit) Record(*parsed, key, rows, span);
    return true;
  }

  void Record(const Json& reply, const std::string& truth_key, uint64_t rows,
              int64_t serve_span) {
    Executed executed;
    if (const Json* stats = reply.Find("stats")) {
      executed.cells = stats->Number("cells_scanned");
      executed.sample_fraction =
          stats->Number("final_sample_size") / static_cast<double>(rows);
      executed.rounds = stats->Number("iterations");
      executed.exhausted = stats->Bool("exhausted_dataset");
    }
    executed.truth_key = truth_key;
    if (const Json* profile = reply.Find("profile")) {
      executed.stage_sum_ms = profile->Number("stage_sum_ms");
      executed.wall_ms = profile->Number("wall_ms");
      if (const Json* stages = profile->Find("stages")) {
        for (const Json& stage : stages->items) {
          const Json* name = stage.Find("stage");
          for (size_t s = 0; s < swope::kNumStages && name != nullptr; ++s) {
            if (name->text == swope::StageName(static_cast<swope::Stage>(s))) {
              executed.stage_ms[s] += stage.Number("ms");
            }
          }
        }
      }
      AddDerivedSpans(executed, serve_span);
    }
    result_.executed.push_back(executed);
  }

  // The engine's own account of an executed query becomes spans under
  // its serve span: "engine.run" for the executed part (profile wall),
  // and one span per stage, which partition it on a serial engine.
  void AddDerivedSpans(const Executed& executed, int64_t serve_span) {
    if (serve_span < 0) return;
    const double serve_ms = spans_->DurationMs(serve_span);
    const int64_t run = spans_->AddDerived(
        "engine.run", serve_span, executed.wall_ms,
        std::max(0.0, serve_ms - executed.wall_ms) / 2.0);
    double offset = 0.0;
    for (size_t s = 0; s < swope::kNumStages; ++s) {
      if (executed.stage_ms[s] <= 0.0) continue;
      spans_->AddDerived(
          std::string("stage.") + swope::StageName(static_cast<swope::Stage>(s)),
          run, executed.stage_ms[s], offset);
      offset += executed.stage_ms[s];
    }
  }

  // Per-layer self times must account for the op's traced latency: no
  // layer's children outlast it beyond clock-calibration error, and the
  // op's own self time (harness code between calls) stays small. The
  // latter is judged over the run in Run(), because an interrupt or a
  // preemption between two harness calls lands there now and then: in
  // traced runs of 4,500 ops, 0 to 4 ops broke the per-op tolerance, by
  // up to 0.36 ms, while the op self time summed stayed under 0.06% of
  // the traced latency.
  void Account(const OpRun& run) {
    // The op's spans are the ones recorded since its op span opened.
    const std::vector<Span>& spans = spans_->spans();
    const size_t first = static_cast<size_t>(run.op_span);
    std::vector<double> self(spans.size() - first);
    for (size_t s = first; s < spans.size(); ++s) {
      self[s - first] = spans_->DurationMs(static_cast<int64_t>(s));
      const int64_t parent = spans[s].parent;
      if (parent >= run.op_span && !spans[s].side) {
        self[static_cast<size_t>(parent) - first] -= self[s - first];
      }
    }
    const double latency = spans_->DurationMs(run.op_span);
    const double unaccounted = self[0];
    result_.unaccounted_ms += unaccounted;
    result_.max_unaccounted_ms =
        std::max(result_.max_unaccounted_ms, unaccounted);
    if (unaccounted > std::max(0.05, 0.02 * latency)) ++result_.unaccounted_ops;
    bool ok = true;
    for (size_t s = first; s < spans.size(); ++s) {
      if (spans[s].side) continue;
      const double duration = spans_->DurationMs(static_cast<int64_t>(s));
      if (self[s - first] < -std::max(0.02, 0.02 * duration)) ok = false;
    }
    if (!ok) ++result_.accounting_failures;
  }

  const WorkloadDef& workload_;
  const Args& args_;
  const std::vector<Op>& ops_;
  const swope::Table* donor_;
  const Oracle& oracle_;
  SpanRecorder* spans_;
  std::set<size_t> repeated_;
  std::map<size_t, std::string> originals_;
  size_t corrupt_op_ = SIZE_MAX;
  PhaseResult result_;
};

/// What the traced run measures beside the ops rather than inside them.
struct SideResult {
  double register_s = 0.0;
  double load_s = 0.0;
  double fingerprint_ms = 0.0;
  size_t fingerprints = 0;
  double append_ms = 0.0;
  size_t ingests = 0;
  /// Exact* wall time per truth key.
  std::map<std::string, double> exact_ms;
  std::vector<std::string> problems;
};

// The traced run's side measurements, made after both measured phases so
// that those do the same work between ops: each set-up layer on its own,
// the Exact* scans the answers were checked against, and on ingest
// workloads a replay of every op's append and re-fingerprint.
SideResult MeasureSide(const WorkloadDef& workload, const Args& args,
                       const std::vector<Op>& ops, const swope::Table& donor,
                       const Oracle& oracle, SpanRecorder& spans) {
  SideResult side;
  QueryEngine scratch(workload.config);
  for (const DatasetInput& input : workload.datasets) {
    const std::string path =
        DatasetPath(args.data_dir, workload, input, args.seed);
    int64_t span = spans.Begin("engine.register", -1, -1, true);
    const swope::Status status = scratch.RegisterDatasetFile(
        input.name, path, kMaxSupport, /*sketch_epsilon=*/0.0,
        /*sketch_threshold=*/1000, input.mmap);
    spans.End(span);
    if (!status.ok()) Die("register: " + status.ToString());
    side.register_s += spans.DurationMs(span) / 1e3;

    span = spans.Begin("table.load", -1, -1, true);
    auto table = input.mmap ? swope::ReadBinaryTableFileMapped(path)
                            : swope::ReadBinaryTableFile(path);
    spans.End(span);
    if (!table.ok()) Die("load: " + table.status().ToString());
    side.load_s += spans.DurationMs(span) / 1e3;
  }

  auto time_exact = [&](const std::string& key, const swope::Table& table,
                        const Request& request, size_t op) {
    const int64_t span =
        spans.Begin("baselines.exact", -1, static_cast<int64_t>(op), true);
    auto computed = ComputeTruth(table, request);
    spans.End(span);
    if (!computed.ok()) Die("exact: " + computed.status().ToString());
    side.exact_ms[key] = spans.DurationMs(span);
    auto loaded = oracle.Get(key, table.num_rows());
    if (!loaded.ok() || (*loaded)->scores != computed->scores) {
      side.problems.push_back("exact scores for " + key +
                              " disagree with the truth file");
    }
  };
  auto time_fingerprint = [&](const swope::Table& table, int64_t op) {
    const int64_t span = spans.Begin("table.fingerprint", -1, op, true);
    const uint64_t fingerprint = swope::TableFingerprint(table);
    spans.End(span);
    side.fingerprint_ms += spans.DurationMs(span);
    ++side.fingerprints;
    return fingerprint;
  };

  if (workload.donor_rows == 0) {
    for (const DatasetInput& input : workload.datasets) {
      const swope::DatasetHandle handle = Registered(scratch, input.name);
      if (time_fingerprint(handle->table, -1) != handle->fingerprint) {
        side.problems.push_back("fingerprint of " + input.name +
                                " differs from the registry's");
      }
    }
    for (size_t i = workload.warmup_ops; i < ops.size(); ++i) {
      for (const Request& request : ops[i].requests) {
        const std::string key = TruthKey(workload, i, request);
        if (side.exact_ms.count(key) == 0) {
          time_exact(key, Registered(scratch, request.dataset)->table,
                     request, i);
        }
      }
    }
    return side;
  }

  // Replays the engine's ingests from the registered base table; state i
  // is the base plus batches 0..i, as in the truth file. Every append is
  // timed; the re-fingerprint and the Exact* scan, a full pass each, on
  // every tenth measured op, which keeps a traced run inside its time
  // budget.
  constexpr size_t kFullPassEvery = 10;
  swope::Table state = Registered(scratch, workload.datasets[0].name)->table;
  for (size_t i = 0; i < ops.size(); ++i) {
    const auto batch = MakeBatch(donor, ops[i].ingest_batch);
    const bool measured = i >= workload.warmup_ops;
    const int64_t op = static_cast<int64_t>(i);
    const int64_t span =
        measured ? spans.Begin("table.append", -1, op, true) : -1;
    auto appended = swope::AppendRowsToTable(state, batch);
    if (measured) spans.End(span);
    if (!appended.ok()) Die("append: " + appended.status().ToString());
    state = std::move(*appended);
    if (!measured) continue;
    ++side.ingests;
    side.append_ms += spans.DurationMs(span);
    if ((i - workload.warmup_ops) % kFullPassEvery != 0) continue;
    time_fingerprint(state, op);
    time_exact(TruthKey(workload, i, ops[i].requests[0]), state,
               ops[i].requests[0], i);
  }
  if (swope::TableFingerprint(state) != oracle.final_fingerprint()) {
    side.problems.push_back("replayed table differs from the truth file's");
  }
  return side;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const PhaseResult& phase) {
  const double n = static_cast<double>(phase.latency_ms.size());
  return {
      {"ops_per_s", n / (phase.busy_ms / 1e3), "1/s"},
      {"p50_ms", Percentile(phase.latency_ms, 0.50), "ms"},
      {"p95_ms", Percentile(phase.latency_ms, 0.95), "ms"},
      {"cpu_ms_per_op", phase.cpu_ms / n, "ms"},
      {"setup_s", Median(phase.setup_s), "s"},
      {"rss_mib", PeakRssMib(), "MiB"},
  };
}

std::vector<Metric> PerLayer(const WorkloadDef& workload,
                             const PhaseResult& traced,
                             const PhaseResult& untraced,
                             const SideResult& side,
                             const SpanRecorder& spans) {
  const double ops = static_cast<double>(traced.latency_ms.size());
  const std::vector<Executed>& executed = traced.executed;
  const double queries = std::max<double>(1.0, static_cast<double>(executed.size()));
  double cells = 0.0, fraction = 0.0, rounds = 0.0, exhausted = 0.0;
  double wall = 0.0, stage_sum = 0.0, exact = 0.0, scanned_wall = 0.0;
  std::array<double, swope::kNumStages> stage{};
  for (const Executed& e : executed) {
    cells += e.cells;
    fraction += e.sample_fraction;
    rounds += e.rounds;
    exhausted += e.exhausted ? 1.0 : 0.0;
    wall += e.wall_ms;
    stage_sum += e.stage_sum_ms;
    const auto scan = side.exact_ms.find(e.truth_key);
    if (scan != side.exact_ms.end()) {
      exact += scan->second;
      scanned_wall += e.wall_ms;
    }
    for (size_t s = 0; s < swope::kNumStages; ++s) stage[s] += e.stage_ms[s];
  }
  auto stage_ms = [&stage](swope::Stage s) {
    return stage[static_cast<size_t>(s)];
  };
  const std::map<std::string, double> self = spans.SelfMsByName();
  auto self_of = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  size_t serve_calls = 0;
  for (const Span& span : spans.spans()) {
    if (span.name == "engine.serve") ++serve_calls;
  }
  const EngineCounters& a = traced.before;
  const EngineCounters& b = traced.after;
  const double hits = static_cast<double>(b.result_cache_hits - a.result_cache_hits);
  const double misses =
      static_cast<double>(b.result_cache_misses - a.result_cache_misses);
  const double traced_ops_per_s = ops / (traced.busy_ms / 1e3);
  const double untraced_ops_per_s =
      static_cast<double>(untraced.latency_ms.size()) / (untraced.busy_ms / 1e3);
  const double per_cell = cells > 0.0 ? 1e6 / cells : 0.0;
  const bool ingest = workload.donor_rows > 0;
  const double ingests = std::max<double>(1.0, static_cast<double>(side.ingests));
  std::vector<double> exact_ms;
  for (const auto& [key, ms] : side.exact_ms) exact_ms.push_back(ms);
  return {
      {"engine.serve_ms",
       self_of("engine.serve") / std::max<double>(1.0, static_cast<double>(serve_calls)),
       "ms"},
      {"engine.overhead_ms", (wall - stage_sum) / queries, "ms"},
      {"engine.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
       "ratio"},
      {"engine.perm_builds_per_op",
       static_cast<double>(b.permutation_cache_misses -
                           a.permutation_cache_misses) / ops,
       "1/op"},
      {"engine.ingest_ms", self_of("engine.ingest") / ops, "ms"},
      {"engine.fingerprint_ms",
       ingest ? side.fingerprint_ms /
                    std::max<double>(1.0, static_cast<double>(side.fingerprints))
              : side.fingerprint_ms,
       "ms"},
      {"engine.register_s", side.register_s, "s"},
      {"engine.arena_kib", traced.arena_kib, "KiB"},
      {"engine.resident_mib", traced.resident_mib, "MiB"},
      {"fs.mapped_mib", traced.mapped_mib, "MiB"},
      {"table.load_s", side.load_s, "s"},
      {"table.append_ms", ingest ? side.append_ms / ingests : 0.0, "ms"},
      {"table.gather_ns_per_cell", stage_ms(swope::Stage::kGather) * per_cell,
       "ns/cell"},
      {"core.count_ns_per_cell", stage_ms(swope::Stage::kCount) * per_cell,
       "ns/cell"},
      {"core.interval_ms", stage_ms(swope::Stage::kIntervalUpdate) / queries,
       "ms"},
      {"core.cells_per_op", cells / queries, "cells"},
      {"core.sample_fraction", fraction / queries, "ratio"},
      {"core.rounds_per_op", rounds / queries, "rounds"},
      {"core.exhausted_share", exhausted / queries, "ratio"},
      {"core.vs_exact", exact > 0.0 ? scanned_wall / exact : 0.0, "ratio"},
      {"baselines.exact_ms", Median(exact_ms), "ms"},
      {"common.sched_wait_ms", stage_ms(swope::Stage::kSchedulingWait) / queries,
       "ms"},
      {"obs.trace_overhead_pct",
       100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s,
       "%"},
  };
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}}";
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-26s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

struct Prepared {
  WorkloadDef workload;
  std::vector<Op> ops;
  swope::Table donor;
};

Prepared Prepare(const Args& args) {
  Prepared prepared;
  auto workload = FindWorkload(args.workload);
  if (!workload.ok()) Die(workload.status().ToString());
  prepared.workload = *workload;
  auto ops = MakeOps(prepared.workload, args.seed,
                     prepared.workload.warmup_ops +
                         MeasuredOps(prepared.workload, args.seconds));
  if (!ops.ok()) Die(ops.status().ToString());
  prepared.ops = std::move(*ops);
  for (const DatasetInput& input : prepared.workload.datasets) {
    WarmPageCache(DatasetPath(args.data_dir, prepared.workload, input, args.seed));
  }
  if (prepared.workload.donor_rows > 0) {
    auto donor = swope::ReadBinaryTableFile(
        DonorPath(args.data_dir, prepared.workload, args.seed));
    if (!donor.ok()) Die("donor: " + donor.status().ToString());
    prepared.donor = std::move(*donor);
  }
  return prepared;
}

int Run(const Args& args) {
  Prepared prepared = Prepare(args);
  const WorkloadDef& workload = prepared.workload;
  Oracle oracle;
  const swope::Status loaded = oracle.Load(
      TruthPath(args.data_dir, workload, args.seed, prepared.ops.size()));
  if (!loaded.ok()) Die(loaded.ToString());
  std::printf("workload=%s seed=%llu seconds=%d trace=%d measured_ops=%zu "
              "warmup_ops=%zu\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              prepared.ops.size() - workload.warmup_ops, workload.warmup_ops);

  if (!args.trace) {
    Phase phase(workload, args, prepared.ops, &prepared.donor, oracle, nullptr);
    const PhaseResult result = phase.Run(kSetUpReps);
    const std::vector<Metric> metrics = EndToEnd(result);
    PrintTable(metrics);
    std::printf("  %-26s %14.6g ratio (%zu of %zu ops failed)\n", "error_rate",
                static_cast<double>(result.failed) /
                    static_cast<double>(result.attempted),
                result.failed, result.attempted);
    for (const std::string& problem : result.problems) {
      std::printf("  problem: %s\n", problem.c_str());
    }
    const bool correct = result.failed == 0 && result.problems.empty();
    std::printf("%s\n", ResultJson(correct, result.attempted, result.failed,
                                   metrics).c_str());
    std::fflush(stdout);
    return 0;
  }

  // Traced run: the traced phase, then an untraced phase of the same ops
  // whose ops_per_s is the baseline for obs.trace_overhead_pct, then the
  // side measurements.
  SpanRecorder spans;
  // Per op: the op, an ingest, and per request a serve span, a run span
  // and up to kNumStages stage spans, plus side spans.
  spans.Reserve(prepared.ops.size() * 48);
  Phase traced_phase(workload, args, prepared.ops, &prepared.donor, oracle,
                     &spans);
  const PhaseResult traced = traced_phase.Run(1);
  Phase untraced_phase(workload, args, prepared.ops, &prepared.donor, oracle,
                       nullptr);
  const PhaseResult untraced = untraced_phase.Run(1);
  const SideResult side = MeasureSide(workload, args, prepared.ops,
                                      prepared.donor, oracle, spans);

  const std::vector<Metric> metrics =
      PerLayer(workload, traced, untraced, side, spans);
  PrintTable(metrics);
  std::printf("  self time per op by layer (ms):\n");
  const double ops = static_cast<double>(traced.latency_ms.size());
  for (const auto& [name, total] : spans.SelfMsByName()) {
    std::printf("    %-24s %10.4f\n", name.c_str(), total / ops);
  }
  double traced_ms = 0.0;
  for (const double ms : traced.latency_ms) traced_ms += ms;
  std::printf("  accounting: %zu of %zu ops outlasted by a child span; %zu "
              "with op self time over max(0.05 ms, 2%%); op self time %.4f%% "
              "of traced latency, at most %.4f ms\n",
              traced.accounting_failures, traced.latency_ms.size(),
              traced.unaccounted_ops, 100.0 * traced.unaccounted_ms / traced_ms,
              traced.max_unaccounted_ms);
  // Self times account for the traced latency when no child outlasts its
  // span, the harness's own time stays under 1% of the traced latency,
  // and at most 1% of ops (at least one) break their own tolerance. A
  // layer left out of the spans would add its time to the op's self time
  // in every op that calls it.
  const bool accounted =
      traced.accounting_failures == 0 &&
      traced.unaccounted_ms <= 0.01 * traced_ms &&
      traced.unaccounted_ops <=
          std::max<size_t>(1, traced.latency_ms.size() / 100);
  const std::string trace_path = args.data_dir + "/" + workload.name +
                                 "-trace-s" + std::to_string(args.seed) +
                                 ".jsonl";
  const swope::Status written = spans.Write(trace_path);
  if (!written.ok()) Die(written.ToString());
  std::printf("  spans: %zu written to %s\n", spans.spans().size(),
              trace_path.c_str());
  const size_t attempted = traced.attempted + untraced.attempted;
  const size_t failed = traced.failed + untraced.failed;
  std::vector<std::string> problems = traced.problems;
  problems.insert(problems.end(), untraced.problems.begin(),
                  untraced.problems.end());
  problems.insert(problems.end(), side.problems.begin(), side.problems.end());
  for (const std::string& problem : problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  const bool correct = failed == 0 && problems.empty() && accounted;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

int Gen(const Args& args) {
  auto workload = FindWorkload(args.workload);
  if (!workload.ok()) Die(workload.status().ToString());
  swope::Status status = GenerateInputs(args.data_dir, *workload, args.seed);
  if (status.ok()) {
    status = GenerateTruths(
        args.data_dir, *workload, args.seed,
        workload->warmup_ops + MeasuredOps(*workload, args.seconds));
  }
  if (!status.ok()) Die("gen: " + status.ToString());
  RemoveOtherSeeds(args.data_dir, *workload, args.seed);
  return 0;
}

bool Expect(bool condition, const std::string& what) {
  std::printf("  %s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  return condition;
}

// The benchmark's own logic, on small inputs.
int SelfTest(const Args& base) {
  bool ok = true;

  // Percentiles: nearest rank leaves ten samples beyond p95 from 200 on.
  bool ranks = true;
  for (size_t n = 200; n <= 5000; ++n) {
    ranks = ranks && n - PercentileRank(n, 0.95) >= 10;
  }
  ok &= Expect(ranks, "p95 has at least ten samples beyond it for n >= 200");
  ok &= Expect(199 - PercentileRank(199, 0.95) < 10,
               "n = 199 would leave fewer than ten beyond p95");
  std::vector<double> sample;
  for (int v = 1; v <= 200; ++v) sample.push_back(201 - v);
  ok &= Expect(Percentile(sample, 0.95) == 190.0 &&
                   Percentile(sample, 0.50) == 100.0,
               "Percentile returns the nearest-rank sample");
  bool floors = true;
  for (const std::string& name : WorkloadNames()) {
    floors = floors && MeasuredOps(*FindWorkload(name), 1) >= 200;
  }
  ok &= Expect(floors, "every workload measures at least 200 ops");

  // Sequences are a function of the seed.
  bool same = true, differs = true;
  for (const std::string& name : WorkloadNames()) {
    const WorkloadDef workload = *FindWorkload(name);
    auto first = MakeOps(workload, 7, 300);
    auto second = MakeOps(workload, 7, 300);
    auto other = MakeOps(workload, 8, 300);
    if (!first.ok() || !second.ok() || !other.ok()) Die("MakeOps failed");
    auto lines = [](const std::vector<Op>& ops) {
      std::string all;
      for (const Op& op : ops) {
        all += std::to_string(op.ingest_batch) + ";";
        for (const Request& r : op.requests) {
          all += r.line + "#" + std::to_string(r.repeat_of) + "\n";
        }
      }
      return all;
    };
    same = same && lines(*first) == lines(*second);
    differs = differs && lines(*first) != lines(*other);
  }
  ok &= Expect(same, "the same seed yields the same request sequence");
  ok &= Expect(differs, "another seed yields another request sequence");

  // On fixed data every request but a designed repeat is new, and a run
  // longer than the grids allow is refused instead of looping.
  bool distinct = true;
  for (const char* name : {"entropy_explore", "mi_select"}) {
    auto ops = MakeOps(*FindWorkload(name), 7, 480);
    if (!ops.ok()) Die(ops.status().ToString());
    std::set<std::string> lines;
    for (const Op& op : *ops) {
      const Request& r = op.requests[0];
      distinct = distinct && (r.repeat_of >= 0 || lines.insert(r.line).second);
    }
  }
  ok &= Expect(distinct, "every request but a designed repeat is distinct");
  const auto too_long = MakeOps(*FindWorkload("mi_select"), 7, 481);
  ok &= Expect(too_long.status().IsInvalidArgument() &&
                   MakeOps(*FindWorkload("entropy_explore"), 7, 30000)
                       .status()
                       .IsInvalidArgument(),
               "a run longer than the request grids is refused");

  // A small entropy_explore: same seed, same cells; a corrupted answer
  // is counted as a failed op.
  WorkloadDef small = *FindWorkload("entropy_explore");
  small.name = "selftest_explore";
  small.datasets[0].rows = 20000;
  small.warmup_ops = 2;
  Args args = base;
  args.seed = 11;
  const size_t count = small.warmup_ops + 60;
  swope::Status generated = GenerateInputs(args.data_dir, small, args.seed);
  if (generated.ok()) {
    generated = GenerateTruths(args.data_dir, small, args.seed, count);
  }
  if (!generated.ok()) Die("selftest gen: " + generated.ToString());
  auto ops = MakeOps(small, args.seed, count);
  if (!ops.ok()) Die(ops.status().ToString());
  WarmPageCache(DatasetPath(args.data_dir, small, small.datasets[0], args.seed));
  Oracle oracle;
  generated = oracle.Load(TruthPath(args.data_dir, small, args.seed, count));
  if (!generated.ok()) Die(generated.ToString());
  auto cells = [](const PhaseResult& result) {
    std::vector<double> all;
    for (const Executed& e : result.executed) all.push_back(e.cells);
    return all;
  };
  Phase first(small, args, *ops, nullptr, oracle, nullptr);
  const PhaseResult a = first.Run(1);
  Phase second(small, args, *ops, nullptr, oracle, nullptr);
  const PhaseResult b = second.Run(1);
  ok &= Expect(a.failed == 0 && a.problems.empty() && b.failed == 0,
               "every answer of the small run passes its check");
  ok &= Expect(a.designed_hits == 15 && a.designed_hits ==
                   a.after.result_cache_hits - a.before.result_cache_hits,
               "cache hits equal the designed repeats");
  ok &= Expect(!cells(a).empty() && cells(a) == cells(b),
               "the same seed yields the same cells per executed query");

  size_t victim = 0;
  for (size_t i = small.warmup_ops; i < ops->size(); ++i) {
    const Request& r = (*ops)[i].requests[0];
    const bool repeated = std::any_of(
        ops->begin(), ops->end(), [i](const Op& op) {
          return op.requests[0].repeat_of == static_cast<int64_t>(i);
        });
    if (r.kind == swope::QueryKind::kEntropyTopK && r.repeat_of < 0 &&
        !repeated) {
      victim = i;
      break;
    }
  }
  Phase corrupted(small, args, *ops, nullptr, oracle, nullptr);
  corrupted.CorruptOp(victim);
  const PhaseResult c = corrupted.Run(1);
  ok &= Expect(victim > 0 && c.failed == 1 && c.attempted == 60,
               "a corrupted answer is counted: error_rate " +
                   std::to_string(c.failed) + "/" +
                   std::to_string(c.attempted));

  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_harness gen|run|selftest [flags]");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.mode == "gen") return perfbench::Gen(args);
  if (args.mode == "run") return perfbench::Run(args);
  if (args.mode == "selftest") return perfbench::SelfTest(args);
  perfbench::Die("unknown mode " + args.mode);
}
