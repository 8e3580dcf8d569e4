#include "src/engine/serve.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

namespace swope {

namespace {

// Shortest round-trippable rendering of a double. %.17g is exact for IEEE
// doubles, so equal values always render identically (the determinism
// regression test relies on this).
std::string JsonDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

struct ParsedRequest {
  std::string op;
  std::map<std::string, std::string> args;
  /// Every `row=` value, in order: the one key that may repeat (an
  /// ingest appends one row per occurrence).
  std::vector<std::string> rows;
};

// The keys each op accepts (serve.h lists them with their values). A
// misspelt key would otherwise leave its setting at the default without
// a word: `epsilom=0.01` ran at epsilon = 0.1.
constexpr std::string_view kLoadKeys[] = {
    "name", "path", "max-support", "sketch-epsilon", "sketch-threshold",
    "mmap"};
constexpr std::string_view kQueryKeys[] = {
    "dataset", "kind", "k", "eta", "target", "epsilon", "seed", "pf", "m0",
    "growth", "sketch-threshold", "sketch-epsilon", "sequential",
    "timeout-ms", "trace", "profile"};
constexpr std::string_view kIngestKeys[] = {"dataset", "row", "csv"};
constexpr std::string_view kUnloadKeys[] = {"name"};
constexpr std::string_view kEventsKeys[] = {"n"};

struct OpKeys {
  std::string_view op;
  std::span<const std::string_view> keys;
};
constexpr OpKeys kOpKeys[] = {
    {"load", kLoadKeys},     {"query", kQueryKeys},   {"ingest", kIngestKeys},
    {"unload", kUnloadKeys}, {"events", kEventsKeys}, {"datasets", {}},
    {"stats", {}},           {"metrics", {}},         {"quit", {}},
};

// The accepted keys of `op`, or null for an op serve does not know (the
// dispatcher reports that).
const std::span<const std::string_view>* AcceptedKeys(std::string_view op) {
  for (const OpKeys& entry : kOpKeys) {
    if (entry.op == op) return &entry.keys;
  }
  return nullptr;
}

// Any key but `row` may appear once; a repeat is an error rather than a
// silent last-one-wins. A key its op does not accept is an error too,
// naming the first such key on the line.
Result<ParsedRequest> ParseRequest(const std::string& line) {
  std::istringstream stream(line);
  ParsedRequest request;
  stream >> request.op;
  const auto* accepted = AcceptedKeys(request.op);
  std::string token;
  while (stream >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("malformed argument '" + token +
                                     "' (want key=value)");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (accepted != nullptr &&
        std::find(accepted->begin(), accepted->end(), key) ==
            accepted->end()) {
      return Status::InvalidArgument(request.op + ": unknown argument " +
                                     key);
    }
    if (key == "row") {
      request.rows.push_back(std::move(value));
    } else if (!request.args.emplace(key, std::move(value)).second) {
      return Status::InvalidArgument("argument " + key +
                                     " given more than once");
    }
  }
  return request;
}

Result<uint64_t> ParseUint(const std::string& text, const std::string& key) {
  // strtoull accepts a leading '-' and wraps it (k=-1 would become
  // 2^64-1), and saturates out-of-range input with ERANGE; reject both.
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' ||
      text.find('-') != std::string::npos || errno == ERANGE) {
    return Status::InvalidArgument("argument " + key +
                                   " wants an unsigned integer, got '" +
                                   text + "'");
  }
  return static_cast<uint64_t>(value);
}

// Flags take exactly 0, 1, true or false; anything else is an error
// rather than a silent false.
Result<bool> ParseBool(const std::string& text, const std::string& key) {
  if (text == "1" || text == "true") return true;
  if (text == "0" || text == "false") return false;
  return Status::InvalidArgument("argument " + key +
                                 " wants 0, 1, true or false, got '" + text +
                                 "'");
}

Result<double> ParseDouble(const std::string& text, const std::string& key) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("argument " + key +
                                   " wants a number, got '" + text + "'");
  }
  return value;
}

// Splits one ingest row on commas (no quoting: the line protocol itself
// cannot carry spaces or newlines inside a value). Empty cells are kept.
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

// Collects ingest rows from `row=` (one inline row each, in order) and/or
// `csv=` (a headerless file, one comma-separated row per line; blank
// lines and #-comments are skipped).
Result<std::vector<std::vector<std::string>>> IngestRowsFromRequest(
    const ParsedRequest& request) {
  std::vector<std::vector<std::string>> rows;
  for (const std::string& row : request.rows) rows.push_back(SplitRow(row));
  if (auto it = request.args.find("csv"); it != request.args.end()) {
    std::ifstream file(it->second);
    if (!file) {
      return Status::IOError("ingest: cannot open '" + it->second + "'");
    }
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
        "ingest: row=v1,v2,... or csv=<path> is required");
  }
  return rows;
}

Result<QuerySpec> SpecFromArgs(
    const std::map<std::string, std::string>& args) {
  QuerySpec spec;
  auto get = [&args](const std::string& key) -> const std::string* {
    auto it = args.find(key);
    return it == args.end() ? nullptr : &it->second;
  };
  const std::string* dataset = get("dataset");
  if (dataset == nullptr) {
    return Status::InvalidArgument("query: dataset=<id> is required");
  }
  spec.dataset = *dataset;
  const std::string* kind = get("kind");
  if (kind == nullptr) {
    return Status::InvalidArgument("query: kind=<kind> is required");
  }
  SWOPE_ASSIGN_OR_RETURN(spec.kind, ParseQueryKind(*kind));
  if (const std::string* v = get("k")) {
    SWOPE_ASSIGN_OR_RETURN(uint64_t k, ParseUint(*v, "k"));
    spec.k = static_cast<size_t>(k);
  }
  if (const std::string* v = get("eta")) {
    SWOPE_ASSIGN_OR_RETURN(spec.eta, ParseDouble(*v, "eta"));
  }
  if (const std::string* v = get("target")) spec.target = *v;
  if (const std::string* v = get("epsilon")) {
    SWOPE_ASSIGN_OR_RETURN(spec.options.epsilon,
                           ParseDouble(*v, "epsilon"));
  }
  if (const std::string* v = get("seed")) {
    SWOPE_ASSIGN_OR_RETURN(spec.options.seed, ParseUint(*v, "seed"));
  }
  if (const std::string* v = get("pf")) {
    SWOPE_ASSIGN_OR_RETURN(spec.options.failure_probability,
                           ParseDouble(*v, "pf"));
  }
  if (const std::string* v = get("m0")) {
    SWOPE_ASSIGN_OR_RETURN(spec.options.initial_sample_size,
                           ParseUint(*v, "m0"));
  }
  if (const std::string* v = get("growth")) {
    SWOPE_ASSIGN_OR_RETURN(spec.options.growth_factor,
                           ParseDouble(*v, "growth"));
  }
  if (const std::string* v = get("sketch-threshold")) {
    SWOPE_ASSIGN_OR_RETURN(uint64_t threshold,
                           ParseUint(*v, "sketch-threshold"));
    spec.options.sketch_threshold = static_cast<uint32_t>(threshold);
  }
  if (const std::string* v = get("sketch-epsilon")) {
    SWOPE_ASSIGN_OR_RETURN(spec.options.sketch_epsilon,
                           ParseDouble(*v, "sketch-epsilon"));
  }
  if (const std::string* v = get("sequential")) {
    SWOPE_ASSIGN_OR_RETURN(spec.options.sequential_sampling,
                           ParseBool(*v, "sequential"));
  }
  if (const std::string* v = get("timeout-ms")) {
    SWOPE_ASSIGN_OR_RETURN(spec.timeout_ms, ParseUint(*v, "timeout-ms"));
  }
  if (const std::string* v = get("trace")) {
    SWOPE_ASSIGN_OR_RETURN(spec.trace, ParseBool(*v, "trace"));
  }
  if (const std::string* v = get("profile")) {
    SWOPE_ASSIGN_OR_RETURN(spec.profile, ParseBool(*v, "profile"));
  }
  return spec;
}

std::string CountersToJson(const EngineCounters& counters,
                           const DatasetRegistry::Stats& registry,
                           const EngineConfig& config) {
  std::string json = "{\"ok\":true,\"op\":\"stats\"";
  // Execution geometry first: which scheduler and how much intra-query
  // parallelism this engine runs with (docs/ENGINE.md).
  json += ",\"pool_mode\":\"";
  json += PoolModeName(config.pool_mode);
  json += "\",\"intra_query_threads\":" +
          std::to_string(config.intra_query_threads);
  auto add = [&json](const char* name, uint64_t value) {
    json += ",\"";
    json += name;
    json += "\":" + std::to_string(value);
  };
  add("queries_started", counters.queries_started);
  add("queries_ok", counters.queries_ok);
  add("queries_failed", counters.queries_failed);
  add("result_cache_hits", counters.result_cache_hits);
  add("result_cache_misses", counters.result_cache_misses);
  add("permutation_cache_hits", counters.permutation_cache_hits);
  add("permutation_cache_misses", counters.permutation_cache_misses);
  add("rows_sampled", counters.rows_sampled);
  add("cancelled", counters.cancelled);
  add("deadline_exceeded", counters.deadline_exceeded);
  add("registry_evictions", counters.registry_evictions);
  add("admission_waits", counters.admission_waits);
  add("rejected", counters.rejected);
  add("pool_steals", counters.pool_steals);
  add("queries_sketch", counters.queries_sketch);
  add("queries_exact", counters.queries_exact);
  add("ingest_rows", counters.ingest_rows);
  add("prefix_cells_counted", counters.prefix_cells_counted);
  add("prefix_cells_reused", counters.prefix_cells_reused);
  add("resident_datasets", registry.resident_datasets);
  add("resident_bytes", registry.resident_bytes);
  add("mapped_bytes", registry.mapped_bytes);
  add("sketch_bytes", registry.sketch_bytes);
  add("events_logged", counters.events_logged);
  // Worker utilization (busy fraction in [0, 1] plus the raw run/idle
  // totals). intra_* are 0 when intra_query_threads <= 1.
  auto add_double = [&json](const char* name, double value) {
    json += ",\"";
    json += name;
    json += "\":" + JsonDouble(value);
  };
  add_double("executor_utilization", counters.executor_utilization);
  add_double("executor_run_ms", counters.executor_run_ms);
  add_double("executor_idle_ms", counters.executor_idle_ms);
  add_double("intra_utilization", counters.intra_utilization);
  add_double("intra_run_ms", counters.intra_run_ms);
  add_double("intra_idle_ms", counters.intra_idle_ms);
  json += "}";
  return json;
}

std::string EventsToJson(const EventLog& log, size_t max_events) {
  const std::vector<EventLog::Event> events = log.Snapshot(max_events);
  std::string json = "{\"ok\":true,\"op\":\"events\",\"total\":" +
                     std::to_string(log.TotalAppended());
  json += ",\"events\":[";
  bool first = true;
  for (const EventLog::Event& event : events) {
    if (!first) json += ",";
    first = false;
    json += "{\"seq\":" + std::to_string(event.sequence);
    json += ",\"kind\":\"";
    json += EventKindName(event.kind);
    json += "\",\"dataset\":\"" + JsonEscape(event.dataset) + "\"";
    json += ",\"wall_ms\":" + JsonDouble(event.wall_ms);
    json += ",\"detail\":\"" + JsonEscape(event.detail) + "\"}";
  }
  json += "]}";
  return json;
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += static_cast<char>(c);
        }
    }
  }
  return escaped;
}

std::string QueryResponseToJson(const QueryResponse& response) {
  std::string json = "{\"ok\":true,\"op\":\"query\",\"kind\":\"";
  json += QueryKindToString(response.kind);
  json += "\",\"cache_hit\":";
  json += response.cache_hit ? "true" : "false";
  json += ",\"items\":[";
  bool first = true;
  for (const AttributeScore& item : response.items) {
    if (!first) json += ",";
    first = false;
    json += "{\"index\":" + std::to_string(item.index);
    json += ",\"name\":\"" + JsonEscape(item.name) + "\"";
    json += ",\"estimate\":" + JsonDouble(item.estimate);
    json += ",\"lower\":" + JsonDouble(item.lower);
    json += ",\"upper\":" + JsonDouble(item.upper) + "}";
  }
  json += "],\"stats\":{";
  json += "\"final_sample_size\":" +
          std::to_string(response.stats.final_sample_size);
  json += ",\"initial_sample_size\":" +
          std::to_string(response.stats.initial_sample_size);
  json += ",\"iterations\":" + std::to_string(response.stats.iterations);
  json += ",\"cells_scanned\":" +
          std::to_string(response.stats.cells_scanned);
  json += ",\"candidates_remaining\":" +
          std::to_string(response.stats.candidates_remaining);
  json += ",\"sketch_candidates\":" +
          std::to_string(response.stats.sketch_candidates);
  json += ",\"path\":\"";
  json += response.stats.sketch_candidates > 0 ? "sketch" : "exact";
  json += "\",\"exhausted_dataset\":";
  json += response.stats.exhausted_dataset ? "true" : "false";
  json += "}";
  if (response.trace != nullptr) {
    json += ",\"trace\":[";
    bool first_round = true;
    for (const RoundTrace& round : response.trace->rounds()) {
      if (!first_round) json += ",";
      first_round = false;
      json += "{\"round\":" + std::to_string(round.round);
      json += ",\"m\":" + std::to_string(round.sample_size);
      json += ",\"lambda\":" + JsonDouble(round.lambda);
      json += ",\"max_bias\":" + JsonDouble(round.max_bias);
      json += ",\"active\":" + std::to_string(round.active_before);
      json += ",\"decided\":" + std::to_string(round.decided);
      json += ",\"cells\":" + std::to_string(round.cells_scanned);
      json += ",\"ms\":" + JsonDouble(round.wall_ms) + "}";
    }
    json += "]";
  }
  if (response.profile != nullptr) {
    // Stage rows render in enum order, only for stages that recorded
    // time, so the block is deterministic and omits dead stages.
    json += ",\"profile\":{\"stages\":[";
    bool first_stage = true;
    for (size_t s = 0; s < kNumStages; ++s) {
      const Stage stage = static_cast<Stage>(s);
      const uint64_t calls = response.profile->StageCalls(stage);
      if (calls == 0) continue;
      if (!first_stage) json += ",";
      first_stage = false;
      json += "{\"stage\":\"";
      json += StageName(stage);
      json += "\",\"calls\":" + std::to_string(calls);
      json += ",\"ms\":" + JsonDouble(response.profile->StageMs(stage)) +
              "}";
    }
    json += "],\"stage_sum_ms\":" +
            JsonDouble(response.profile->StageSumMs());
    json += ",\"wall_ms\":" + JsonDouble(response.profile->WallMs());
    // Heap allocations the query performed: 0 unless a counting
    // interposer is linked (src/common/alloc_hook.h).
    json +=
        ",\"allocs\":" + std::to_string(response.profile->Allocs()) + "}";
  }
  json += "}";
  return json;
}

std::string StatusToJson(const Status& status) {
  std::string json = "{\"ok\":false,\"code\":\"";
  json += JsonEscape(std::string(StatusCodeToString(status.code())));
  json += "\",\"error\":\"" + JsonEscape(status.message()) + "\"}";
  return json;
}

std::string HandleRequestLine(QueryEngine& engine, const std::string& line,
                              bool* quit) {
  *quit = false;
  auto request = ParseRequest(line);
  if (!request.ok()) return StatusToJson(request.status());

  if (request->op == "quit") {
    *quit = true;
    return "{\"ok\":true,\"op\":\"quit\"}";
  }
  if (request->op == "stats") {
    return CountersToJson(engine.GetCounters(),
                          engine.registry().GetStats(), engine.config());
  }
  if (request->op == "events") {
    size_t max_events = SIZE_MAX;
    if (auto it = request->args.find("n"); it != request->args.end()) {
      auto parsed = ParseUint(it->second, "n");
      if (!parsed.ok()) return StatusToJson(parsed.status());
      max_events = static_cast<size_t>(*parsed);
    }
    return EventsToJson(engine.events(), max_events);
  }
  if (request->op == "metrics") {
    // GetCounters refreshes the worker-utilization gauges; the snapshot
    // itself is discarded.
    (void)engine.GetCounters();
    // Both exposition forms in one response: the Prometheus text is a
    // JSON string (scrape adapters unescape it), the snapshot is plain
    // nested JSON.
    std::string json = "{\"ok\":true,\"op\":\"metrics\",\"prometheus\":\"";
    json += JsonEscape(engine.metrics().RenderPrometheusText());
    json += "\",\"snapshot\":" + engine.metrics().RenderJson() + "}";
    return json;
  }
  if (request->op == "datasets") {
    std::string json = "{\"ok\":true,\"op\":\"datasets\",\"names\":[";
    bool first = true;
    for (const std::string& name : engine.registry().Names()) {
      if (!first) json += ",";
      first = false;
      json += "\"" + JsonEscape(name) + "\"";
    }
    json += "]}";
    return json;
  }
  if (request->op == "load") {
    auto name = request->args.find("name");
    auto path = request->args.find("path");
    if (name == request->args.end() || path == request->args.end()) {
      return StatusToJson(Status::InvalidArgument(
          "load: name=<id> and path=<file> are required"));
    }
    uint32_t max_support = 0;
    if (auto it = request->args.find("max-support");
        it != request->args.end()) {
      auto parsed = ParseUint(it->second, "max-support");
      if (!parsed.ok()) return StatusToJson(parsed.status());
      max_support = static_cast<uint32_t>(*parsed);
    }
    double sketch_epsilon = 0.0;
    if (auto it = request->args.find("sketch-epsilon");
        it != request->args.end()) {
      auto parsed = ParseDouble(it->second, "sketch-epsilon");
      if (!parsed.ok()) return StatusToJson(parsed.status());
      sketch_epsilon = *parsed;
    }
    uint32_t sketch_threshold = 1000;
    if (auto it = request->args.find("sketch-threshold");
        it != request->args.end()) {
      auto parsed = ParseUint(it->second, "sketch-threshold");
      if (!parsed.ok()) return StatusToJson(parsed.status());
      sketch_threshold = static_cast<uint32_t>(*parsed);
    }
    bool mmap = false;
    if (auto it = request->args.find("mmap"); it != request->args.end()) {
      auto parsed = ParseBool(it->second, "mmap");
      if (!parsed.ok()) return StatusToJson(parsed.status());
      mmap = *parsed;
    }
    const Status status =
        engine.RegisterDatasetFile(name->second, path->second, max_support,
                                   sketch_epsilon, sketch_threshold, mmap);
    if (!status.ok()) return StatusToJson(status);
    auto dataset = engine.registry().Get(name->second);
    if (!dataset.ok()) return StatusToJson(dataset.status());
    std::string json = "{\"ok\":true,\"op\":\"load\",\"name\":\"" +
                       JsonEscape(name->second) + "\"";
    json += ",\"rows\":" + std::to_string((*dataset)->table.num_rows());
    json +=
        ",\"columns\":" + std::to_string((*dataset)->table.num_columns());
    // The byte split a mapped load exists for: resident is heap (what
    // the registry budget charges), mapped stays OS-paged.
    json +=
        ",\"resident_bytes\":" + std::to_string((*dataset)->memory_bytes);
    json += ",\"mapped_bytes\":" + std::to_string((*dataset)->mapped_bytes);
    json +=
        ",\"fingerprint\":" + std::to_string((*dataset)->fingerprint) + "}";
    return json;
  }
  if (request->op == "unload") {
    auto name = request->args.find("name");
    if (name == request->args.end()) {
      return StatusToJson(
          Status::InvalidArgument("unload: name=<id> is required"));
    }
    const Status status = engine.RemoveDataset(name->second);
    if (!status.ok()) return StatusToJson(status);
    return "{\"ok\":true,\"op\":\"unload\",\"name\":\"" +
           JsonEscape(name->second) + "\"}";
  }
  if (request->op == "ingest") {
    auto name = request->args.find("dataset");
    if (name == request->args.end()) {
      return StatusToJson(
          Status::InvalidArgument("ingest: dataset=<id> is required"));
    }
    auto rows = IngestRowsFromRequest(*request);
    if (!rows.ok()) return StatusToJson(rows.status());
    const Status status = engine.Ingest(name->second, *rows);
    if (!status.ok()) return StatusToJson(status);
    auto dataset = engine.registry().Get(name->second);
    if (!dataset.ok()) return StatusToJson(dataset.status());
    std::string json = "{\"ok\":true,\"op\":\"ingest\",\"dataset\":\"" +
                       JsonEscape(name->second) + "\"";
    json += ",\"appended\":" + std::to_string(rows->size());
    json += ",\"rows\":" + std::to_string((*dataset)->table.num_rows());
    json +=
        ",\"fingerprint\":" + std::to_string((*dataset)->fingerprint) + "}";
    return json;
  }
  if (request->op == "query") {
    auto spec = SpecFromArgs(request->args);
    if (!spec.ok()) return StatusToJson(spec.status());
    auto response = engine.Run(*spec);
    if (!response.ok()) return StatusToJson(response.status());
    return QueryResponseToJson(*response);
  }
  return StatusToJson(Status::InvalidArgument(
      "unknown request '" + request->op +
      "' (want load/query/ingest/unload/datasets/stats/events/metrics/"
      "quit)"));
}

uint64_t ServeLoop(QueryEngine& engine, std::istream& in,
                   std::ostream& out) {
  uint64_t failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    bool quit = false;
    const std::string response = HandleRequestLine(engine, line, &quit);
    out << response << "\n" << std::flush;
    if (response.rfind("{\"ok\":false", 0) == 0) ++failures;
    if (quit) break;
  }
  return failures;
}

}  // namespace swope
