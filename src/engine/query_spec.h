// QuerySpec: one uniform description of every query the engine serves.
//
// A spec names a registered dataset, a query kind (the four SWOPE
// algorithms of the paper plus the NMI extensions), the kind-specific
// parameter (k or eta), an optional target attribute, and the shared
// QueryOptions. Specs are plain values: parse one from a request line,
// validate it, then hand it to QueryEngine::Run.
//
// Canonicalization (ResolveSpec) maps a spec to the exact inputs the
// driver will see -- target name resolved to an index, k clamped, the
// failure probability resolved against N -- and derives a canonical cache
// key, so that syntactically different but semantically equal specs share
// one ResultCache entry.

#ifndef SWOPE_ENGINE_QUERY_SPEC_H_
#define SWOPE_ENGINE_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/core/query_options.h"
#include "src/table/table.h"

namespace swope {

/// The query families the engine dispatches.
enum class QueryKind : int {
  kEntropyTopK = 0,
  kEntropyFilter = 1,
  kMiTopK = 2,
  kMiFilter = 3,
  kNmiTopK = 4,
  kNmiFilter = 5,
};

/// Stable wire name of a kind ("entropy-topk", "mi-filter", ...).
std::string_view QueryKindToString(QueryKind kind);

/// Parses a wire name; InvalidArgument on unknown names.
Result<QueryKind> ParseQueryKind(std::string_view text);

/// True for the three top-k kinds (which use `k`); filtering kinds use
/// `eta` instead.
bool IsTopKKind(QueryKind kind);

/// True for the MI / NMI kinds (which require `target`).
bool NeedsTarget(QueryKind kind);

/// A fully parameterized query request.
struct QuerySpec {
  /// Registry name of the dataset to query.
  std::string dataset;

  QueryKind kind = QueryKind::kEntropyTopK;

  /// Top-k kinds: number of attributes requested (>= 1; clamped to the
  /// table's attribute count at resolution).
  size_t k = 0;

  /// Filtering kinds: score threshold eta (> 0; additionally <= 1 for
  /// NMI filtering).
  double eta = 0.0;

  /// MI / NMI kinds: target attribute, by column name or decimal index
  /// (names win when a column is literally named like a number).
  std::string target;

  /// Sampling parameters; QueryOptions::shared_prefix, ::control, and
  /// ::pool are engine-managed and must be left null on submitted specs.
  QueryOptions options;

  /// Wall-clock budget in milliseconds; 0 means no deadline.
  uint64_t timeout_ms = 0;

  /// Requests a per-round QueryTrace on the response. Purely
  /// observational: traced and untraced runs compute identical answers,
  /// so this is NOT part of the canonical cache key. (A cache hit serves
  /// no trace -- no rounds ran.) QueryOptions::trace itself is
  /// engine-managed and must stay null on submitted specs.
  bool trace = false;

  /// Requests a per-stage StageProfiler breakdown on the response. Purely
  /// observational, like `trace`: profiled and unprofiled runs compute
  /// identical answers, so this is NOT part of the canonical cache key.
  /// (A cache hit serves no profile -- no stages ran.)
  /// QueryOptions::profiler itself is engine-managed and must stay null
  /// on submitted specs.
  bool profile = false;

  /// Table-independent validation (kind/parameter coherence plus
  /// QueryOptions::Validate).
  Status Validate() const;
};

/// A spec bound to a concrete table: what QueryEngine actually executes.
struct ResolvedSpec {
  QueryKind kind = QueryKind::kEntropyTopK;
  /// Clamped to the table (h for entropy top-k, h - 1 for MI/NMI top-k).
  size_t k = 0;
  double eta = 0.0;
  /// Resolved target column index (0 when the kind takes no target).
  size_t target = 0;
  /// options.failure_probability is resolved against the table's N, so
  /// the canonical key of "0 = paper default" and an explicit 1/N agree.
  QueryOptions options;
  uint64_t timeout_ms = 0;
  /// Echo of QuerySpec::trace (not part of canonical_key).
  bool trace = false;
  /// Echo of QuerySpec::profile (not part of canonical_key).
  bool profile = false;
  /// Canonical cache key; equal keys <=> the driver sees equal inputs.
  std::string canonical_key;
};

/// Validates `spec` against `table` and produces the resolved form plus
/// its canonical key. Fails with InvalidArgument / NotFound when the spec
/// cannot apply to this table (bad target, empty table, ...).
Result<ResolvedSpec> ResolveSpec(const QuerySpec& spec, const Table& table);

}  // namespace swope

#endif  // SWOPE_ENGINE_QUERY_SPEC_H_
