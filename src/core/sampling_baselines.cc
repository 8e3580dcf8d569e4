// This TU lives in src/core/ and may use the internal driver headers.
#define SWOPE_CORE_INTERNAL

#include "src/core/sampling_baselines.h"

#include <algorithm>
#include <utility>

#include "src/core/adaptive_sampling_driver.h"
#include "src/core/scorers.h"

namespace swope {

namespace {

// The baselines count every column exactly and accept any support: with
// sketch_epsilon = 0 no scorer takes the sketch path.
QueryOptions ExactCounting(const QueryOptions& options) {
  QueryOptions exact = options;
  exact.sketch_epsilon = 0.0;
  return exact;
}

}  // namespace

Result<TopKResult> EntropyRankTopK(const Table& table, size_t k,
                                   const QueryOptions& options) {
  SWOPE_RETURN_NOT_OK(options.Validate());
  const size_t h = table.num_columns();
  if (h == 0) {
    return Status::InvalidArgument("entropy rank: table has no columns");
  }
  if (k == 0) return Status::InvalidArgument("entropy rank: k must be >= 1");
  k = std::min(k, h);

  const QueryOptions exact = ExactCounting(options);
  EntropyScorer scorer(table, exact);
  RankPolicy policy(table, k, exact.memory);
  AdaptiveSamplingDriver driver(table, exact);
  SWOPE_ASSIGN_OR_RETURN(AdaptiveSamplingDriver::Output output,
                         driver.Run(scorer, policy));
  return TopKResult{std::move(output.items), output.stats};
}

Result<FilterResult> EntropyFilterQuery(const Table& table, double eta,
                                        const QueryOptions& options) {
  SWOPE_RETURN_NOT_OK(options.Validate());
  if (!(eta > 0.0)) {
    return Status::InvalidArgument("entropy filter: eta must be > 0");
  }
  if (table.num_columns() == 0) {
    return Status::InvalidArgument("entropy filter: table has no columns");
  }

  const QueryOptions exact = ExactCounting(options);
  EntropyScorer scorer(table, exact);
  FilterPolicy policy(table, eta, /*epsilon=*/0.0, exact.memory);
  AdaptiveSamplingDriver driver(table, exact);
  SWOPE_ASSIGN_OR_RETURN(AdaptiveSamplingDriver::Output output,
                         driver.Run(scorer, policy));
  return FilterResult{std::move(output.items), output.stats};
}

Result<TopKResult> MiRankTopK(const Table& table, size_t target, size_t k,
                              const QueryOptions& options) {
  SWOPE_RETURN_NOT_OK(options.Validate());
  const size_t h = table.num_columns();
  if (target >= h) {
    return Status::InvalidArgument("mi rank: target index out of range");
  }
  if (h < 2) {
    return Status::InvalidArgument("mi rank: need at least two columns");
  }
  if (k == 0) return Status::InvalidArgument("mi rank: k must be >= 1");
  k = std::min(k, h - 1);

  const QueryOptions exact = ExactCounting(options);
  MiScorer scorer(table, target, exact);
  RankPolicy policy(table, k, exact.memory);
  AdaptiveSamplingDriver driver(table, exact);
  SWOPE_ASSIGN_OR_RETURN(AdaptiveSamplingDriver::Output output,
                         driver.Run(scorer, policy));
  return TopKResult{std::move(output.items), output.stats};
}

Result<FilterResult> MiFilterQuery(const Table& table, size_t target,
                                   double eta, const QueryOptions& options) {
  SWOPE_RETURN_NOT_OK(options.Validate());
  if (!(eta > 0.0)) {
    return Status::InvalidArgument("mi filter baseline: eta must be > 0");
  }
  const size_t h = table.num_columns();
  if (target >= h) {
    return Status::InvalidArgument(
        "mi filter baseline: target index out of range");
  }
  if (h < 2) {
    return Status::InvalidArgument(
        "mi filter baseline: need at least two columns");
  }

  const QueryOptions exact = ExactCounting(options);
  MiScorer scorer(table, target, exact);
  FilterPolicy policy(table, eta, /*epsilon=*/0.0, exact.memory);
  AdaptiveSamplingDriver driver(table, exact);
  SWOPE_ASSIGN_OR_RETURN(AdaptiveSamplingDriver::Output output,
                         driver.Run(scorer, policy));
  return FilterResult{std::move(output.items), output.stats};
}

}  // namespace swope
