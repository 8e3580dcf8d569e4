#include "src/engine/query_spec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace swope {

namespace {

struct KindName {
  QueryKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {QueryKind::kEntropyTopK, "entropy-topk"},
    {QueryKind::kEntropyFilter, "entropy-filter"},
    {QueryKind::kMiTopK, "mi-topk"},
    {QueryKind::kMiFilter, "mi-filter"},
    {QueryKind::kNmiTopK, "nmi-topk"},
    {QueryKind::kNmiFilter, "nmi-filter"},
};

// Exact textual form of a double (round-trippable hexfloat), so the
// canonical key never conflates nearby values or splits equal ones.
std::string HexDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

Result<size_t> ResolveTargetColumn(const Table& table,
                                   const std::string& target) {
  if (target.empty()) {
    return Status::InvalidArgument("query spec: target attribute is required");
  }
  auto by_name = table.ColumnIndex(target);
  if (by_name.ok()) return by_name;
  char* end = nullptr;
  const unsigned long long index = std::strtoull(target.c_str(), &end, 10);
  if (end != target.c_str() && *end == '\0' && index < table.num_columns()) {
    return static_cast<size_t>(index);
  }
  return by_name.status();
}

}  // namespace

std::string_view QueryKindToString(QueryKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

Result<QueryKind> ParseQueryKind(std::string_view text) {
  for (const KindName& entry : kKindNames) {
    if (entry.name == text) return entry.kind;
  }
  return Status::InvalidArgument("unknown query kind '" + std::string(text) +
                                 "'");
}

bool IsTopKKind(QueryKind kind) {
  return kind == QueryKind::kEntropyTopK || kind == QueryKind::kMiTopK ||
         kind == QueryKind::kNmiTopK;
}

bool NeedsTarget(QueryKind kind) {
  return kind != QueryKind::kEntropyTopK && kind != QueryKind::kEntropyFilter;
}

Status QuerySpec::Validate() const {
  if (dataset.empty()) {
    return Status::InvalidArgument("query spec: dataset name is required");
  }
  SWOPE_RETURN_NOT_OK(options.Validate());
  if (options.shared_prefix != nullptr || options.control != nullptr ||
      options.pool != nullptr || options.trace != nullptr ||
      options.profiler != nullptr) {
    return Status::InvalidArgument(
        "query spec: shared_prefix / control / pool / trace / profiler are "
        "engine-managed and must be null on submitted specs (use "
        "QuerySpec::trace / QuerySpec::profile to request them)");
  }
  if (IsTopKKind(kind)) {
    if (k == 0) {
      return Status::InvalidArgument("query spec: top-k kinds need k >= 1");
    }
  } else {
    if (!(eta > 0.0)) {
      return Status::InvalidArgument(
          "query spec: filtering kinds need eta > 0");
    }
    if (kind == QueryKind::kNmiFilter && eta > 1.0) {
      return Status::InvalidArgument(
          "query spec: NMI filtering needs eta in (0, 1]");
    }
  }
  if (NeedsTarget(kind) && target.empty()) {
    return Status::InvalidArgument(
        "query spec: MI/NMI kinds need a target attribute");
  }
  return Status::OK();
}

Result<ResolvedSpec> ResolveSpec(const QuerySpec& spec, const Table& table) {
  SWOPE_RETURN_NOT_OK(spec.Validate());

  ResolvedSpec resolved;
  resolved.kind = spec.kind;
  resolved.eta = IsTopKKind(spec.kind) ? 0.0 : spec.eta;
  resolved.options = spec.options;
  resolved.timeout_ms = spec.timeout_ms;
  resolved.trace = spec.trace;
  resolved.profile = spec.profile;

  if (NeedsTarget(spec.kind)) {
    SWOPE_ASSIGN_OR_RETURN(resolved.target,
                           ResolveTargetColumn(table, spec.target));
  }
  if (IsTopKKind(spec.kind)) {
    const size_t h = table.num_columns();
    const size_t cap = spec.kind == QueryKind::kEntropyTopK
                           ? h
                           : (h > 0 ? h - 1 : 0);
    if (cap == 0) {
      return Status::InvalidArgument(
          "query spec: table has no candidate attributes for this kind");
    }
    resolved.k = std::min(spec.k, cap);
  }
  // Resolve the paper-default failure probability against this table so
  // "0 = 1/N" and an explicit equal value canonicalize identically.
  resolved.options.failure_probability =
      spec.options.ResolveFailureProbability(table.num_rows());

  std::string key;
  key.reserve(160);
  key += "kind=";
  key += QueryKindToString(resolved.kind);
  key += ";k=" + std::to_string(resolved.k);
  key += ";eta=" + HexDouble(resolved.eta);
  key += ";target=";
  key += NeedsTarget(resolved.kind) ? std::to_string(resolved.target) : "-";
  key += ";eps=" + HexDouble(resolved.options.epsilon);
  key += ";pf=" + HexDouble(resolved.options.failure_probability);
  key += ";seed=" + std::to_string(resolved.options.seed);
  key += ";m0=" + std::to_string(resolved.options.initial_sample_size);
  key += ";gf=" + HexDouble(resolved.options.growth_factor);
  key += ";dpl=" + std::to_string(resolved.options.dense_pair_limit);
  key += ";st=" + std::to_string(resolved.options.sketch_threshold);
  key += ";se=" + HexDouble(resolved.options.sketch_epsilon);
  key += ";seq=";
  key += resolved.options.sequential_sampling ? '1' : '0';
  resolved.canonical_key = std::move(key);
  return resolved;
}

}  // namespace swope
