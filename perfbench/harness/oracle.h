// Ground truth and answer checks behind the benchmark's error_rate.
//
// Exact scores come from the baselines' Exact* scans, once per dataset
// state and target. The gen step computes them in its own process
// (in parallel, so they cost the run little wall time and none of its
// peak RSS) and writes a truth file; the traced run times the scans
// again after its measured phases and checks that they agree. Each
// answer is checked against Definition 5 (top-k) or Definition 6
// (filtering) with the library's own SatisfiesApproxTopK /
// SatisfiesApproxFilter.

#ifndef SWOPE_PERFBENCH_HARNESS_ORACLE_H_
#define SWOPE_PERFBENCH_HARNESS_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json.h"
#include "src/common/result.h"
#include "src/table/table.h"
#include "workloads.h"

namespace perfbench {

struct Truth {
  /// Rows of the dataset state the scores were computed on.
  uint64_t rows = 0;
  /// Exact score per column index (entropy, or MI against the target).
  std::vector<double> scores;
};

bool IsMi(swope::QueryKind kind);

/// Names the dataset state and target that request `r` of op `op` is
/// answered from: the dataset (and MI target) on fixed data, the state
/// after the op's ingest on ingest_refresh.
std::string TruthKey(const WorkloadDef& workload, size_t op,
                     const Request& request);

/// Runs the Exact* scan for the request's kind and target on `table`.
/// An Exact* scan costs the same for every k and eta, so it ranks every
/// eligible column once and serves all requests on that state.
swope::Result<Truth> ComputeTruth(const swope::Table& table,
                                  const Request& request);

/// Computes every truth the first `ops` ops of `workload` need and
/// writes them to TruthPath(...) unless that file exists.
swope::Status GenerateTruths(const std::string& data_dir,
                             const WorkloadDef& workload, uint64_t seed,
                             size_t ops);

std::string TruthPath(const std::string& data_dir,
                      const WorkloadDef& workload, uint64_t seed,
                      size_t ops);

class Oracle {
 public:
  /// Loads a truth file written by GenerateTruths.
  swope::Status Load(const std::string& path);

  /// The loaded truth for `key`, which must be for a state of `rows` rows.
  swope::Result<const Truth*> Get(const std::string& key,
                                  uint64_t rows) const;

  /// Fingerprint of the last dataset state on ingest workloads (0 when
  /// the data never changes).
  uint64_t final_fingerprint() const { return final_fingerprint_; }

 private:
  std::map<std::string, Truth> loaded_;
  uint64_t final_fingerprint_ = 0;
};

/// Checks a parsed query reply: "ok":true, well-formed items naming
/// eligible, distinct columns, the right answer size, and Definition 5
/// or 6 against `truth`. On failure returns false and says why.
bool CheckAnswer(const Json& reply, const Request& request,
                 const Truth& truth, std::string* why);

/// The reply with "cache_hit" cleared and any profile block dropped:
/// what a result-cache hit must reproduce byte for byte.
std::string CacheComparable(const std::string& reply);

}  // namespace perfbench

#endif  // SWOPE_PERFBENCH_HARNESS_ORACLE_H_
