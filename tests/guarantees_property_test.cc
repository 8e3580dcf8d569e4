// Property suite: the formal guarantees of Definitions 5 and 6 must hold
// across a parameterized sweep of datasets, seeds, epsilons, k values and
// thresholds. Each sweep runs the algorithm against fresh randomness and
// checks the definition against exact scores; the overall violation count
// must respect the failure budget (we run with p_f well below the sweep
// size, so the expected number of violations is << 1 and we assert zero
// with a tiny tolerance for genuinely unlucky draws). A second sweep
// inflates p_f to 0.2, where most queries stop early, and checks every
// SWOPE kind and sampling baseline against a binomial tolerance.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/entropy.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_filter_mi.h"
#include "src/core/swope_filter_nmi.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/core/swope_topk_nmi.h"
#include "src/eval/accuracy.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::AllIndices;
using test::AllIndicesExcept;
using test::MakeEntropyTable;
using test::MakeMiTable;

constexpr uint64_t kRows = 30000;

struct EntropyCase {
  double epsilon;
  uint64_t data_seed;
};

class EntropyGuaranteeTest : public testing::TestWithParam<EntropyCase> {};

TEST_P(EntropyGuaranteeTest, TopKSatisfiesDefinitionFive) {
  const EntropyCase param = GetParam();
  // Mixed entropy profile with adjacent values around every plausible k.
  const Table table = MakeEntropyTable(
      {5.2, 4.8, 4.0, 3.6, 3.0, 2.2, 1.5, 0.8, 0.3}, kRows, param.data_seed);
  const auto exact = ExactEntropies(table);
  const auto eligible = AllIndices(table.num_columns());

  int violations = 0;
  for (size_t k : {1, 2, 4, 8}) {
    for (uint64_t query_seed = 0; query_seed < 3; ++query_seed) {
      QueryOptions options;
      options.epsilon = param.epsilon;
      options.seed = 1000 * param.data_seed + 10 * k + query_seed;
      auto result = SwopeTopKEntropy(table, k, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (!SatisfiesApproxTopK(result->items, exact, eligible, k,
                               options.epsilon)) {
        ++violations;
      }
      EXPECT_EQ(result->items.size(), std::min(k, table.num_columns()));
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST_P(EntropyGuaranteeTest, FilterSatisfiesDefinitionSix) {
  const EntropyCase param = GetParam();
  const Table table = MakeEntropyTable(
      {5.2, 4.8, 4.0, 3.6, 3.0, 2.2, 1.5, 0.8, 0.3}, kRows, param.data_seed);
  const auto exact = ExactEntropies(table);
  const auto eligible = AllIndices(table.num_columns());

  int violations = 0;
  for (double eta : {0.5, 1.5, 2.5, 3.5, 5.0}) {
    for (uint64_t query_seed = 0; query_seed < 3; ++query_seed) {
      QueryOptions options;
      options.epsilon = param.epsilon;
      options.seed = 777 * param.data_seed + 31 * query_seed +
                     static_cast<uint64_t>(eta * 10);
      auto result = SwopeFilterEntropy(table, eta, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (!SatisfiesApproxFilter(*result, exact, eligible, eta,
                                 options.epsilon)) {
        ++violations;
      }
    }
  }
  EXPECT_EQ(violations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EntropyGuaranteeTest,
    testing::Values(EntropyCase{0.05, 1}, EntropyCase{0.1, 2},
                    EntropyCase{0.1, 3}, EntropyCase{0.25, 4},
                    EntropyCase{0.5, 5}),
    [](const testing::TestParamInfo<EntropyCase>& param_info) {
      return "eps" +
             std::to_string(static_cast<int>(param_info.param.epsilon * 100)) +
             "_seed" + std::to_string(param_info.param.data_seed);
    });

struct MiCase {
  double epsilon;
  uint64_t data_seed;
};

class MiGuaranteeTest : public testing::TestWithParam<MiCase> {};

TEST_P(MiGuaranteeTest, TopKSatisfiesDefinitionFive) {
  const MiCase param = GetParam();
  const Table table = MakeMiTable({0.95, 0.8, 0.6, 0.4, 0.25, 0.1, 0.0},
                                  kRows, param.data_seed);
  auto exact = ExactMutualInformations(table, 0);
  ASSERT_TRUE(exact.ok());
  const auto eligible = AllIndicesExcept(table.num_columns(), 0);

  int violations = 0;
  for (size_t k : {1, 2, 4}) {
    QueryOptions options;
    options.epsilon = param.epsilon;
    options.seed = 31 * param.data_seed + k;
    auto result = SwopeTopKMi(table, 0, k, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!SatisfiesApproxTopK(result->items, *exact, eligible, k,
                             options.epsilon)) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST_P(MiGuaranteeTest, FilterSatisfiesDefinitionSix) {
  const MiCase param = GetParam();
  const Table table = MakeMiTable({0.95, 0.8, 0.6, 0.4, 0.25, 0.1, 0.0},
                                  kRows, param.data_seed);
  auto exact = ExactMutualInformations(table, 0);
  ASSERT_TRUE(exact.ok());
  const auto eligible = AllIndicesExcept(table.num_columns(), 0);

  int violations = 0;
  for (double eta : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    QueryOptions options;
    options.epsilon = param.epsilon;
    options.seed = 59 * param.data_seed + static_cast<uint64_t>(eta * 100);
    auto result = SwopeFilterMi(table, 0, eta, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!SatisfiesApproxFilter(*result, *exact, eligible, eta,
                               options.epsilon)) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST_P(MiGuaranteeTest, NmiTopKSatisfiesDefinitionFive) {
  const MiCase param = GetParam();
  const Table table = MakeMiTable({0.95, 0.8, 0.6, 0.4, 0.25, 0.1, 0.0},
                                  kRows, param.data_seed);
  auto exact = ExactNormalizedMis(table, 0);
  ASSERT_TRUE(exact.ok());
  const auto eligible = AllIndicesExcept(table.num_columns(), 0);

  int violations = 0;
  for (size_t k : {1, 2, 4}) {
    QueryOptions options;
    options.epsilon = param.epsilon;
    options.seed = 37 * param.data_seed + k;
    auto result = SwopeTopKNmi(table, 0, k, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!SatisfiesApproxTopK(result->items, *exact, eligible, k,
                             options.epsilon)) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST_P(MiGuaranteeTest, NmiFilterSatisfiesDefinitionSix) {
  const MiCase param = GetParam();
  const Table table = MakeMiTable({0.95, 0.8, 0.6, 0.4, 0.25, 0.1, 0.0},
                                  kRows, param.data_seed);
  auto exact = ExactNormalizedMis(table, 0);
  ASSERT_TRUE(exact.ok());
  const auto eligible = AllIndicesExcept(table.num_columns(), 0);

  int violations = 0;
  // NMI thresholds sit between the table's scores (about 0.89, 0.64,
  // 0.40, 0.20, 0.09, 0.02 and 0).
  for (double eta : {0.05, 0.15, 0.3, 0.5, 0.75}) {
    QueryOptions options;
    options.epsilon = param.epsilon;
    options.seed = 61 * param.data_seed + static_cast<uint64_t>(eta * 100);
    auto result = SwopeFilterNmi(table, 0, eta, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!SatisfiesApproxFilter(*result, *exact, eligible, eta,
                               options.epsilon)) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MiGuaranteeTest,
    testing::Values(MiCase{0.25, 1}, MiCase{0.5, 2}, MiCase{0.5, 3},
                    MiCase{0.75, 4}),
    [](const testing::TestParamInfo<MiCase>& param_info) {
      return "eps" +
             std::to_string(static_cast<int>(param_info.param.epsilon * 100)) +
             "_seed" + std::to_string(param_info.param.data_seed);
    });

// Inflated failure probability. At p_f = 0.2 the intervals are narrow
// enough that many queries stop before M = N, so their answers rest on the
// bounds rather than on an exhaustive scan. Each kind runs kSweepRuns
// query seeds over its k / eta / epsilon grid; its violations must stay
// within p_f * runs plus three binomial standard deviations, and some of
// its runs must stop early (else the sweep checked only full scans). SWOPE
// kinds are checked against Definitions 5 and 6, the baselines against
// their own contract: the exact top-k set, or exact membership above eta.
constexpr double kInflatedPf = 0.2;
constexpr int kSweepRuns = 200;

constexpr size_t kEntropyKs[] = {1, 2, 4, 8};
constexpr double kEntropyEtas[] = {0.5, 1.5, 2.5, 3.5, 5.0};
constexpr double kEntropyEpsilons[] = {0.05, 0.1, 0.25, 0.5};
constexpr size_t kMiKs[] = {1, 2, 4};
constexpr double kMiEtas[] = {0.1, 0.2, 0.3, 0.4, 0.5};
constexpr double kNmiEtas[] = {0.05, 0.15, 0.3, 0.5, 0.75};
constexpr double kMiEpsilons[] = {0.25, 0.5, 0.75};

// Cycles through `values`, advancing once every `stride` runs.
template <typename T, size_t N>
T Pick(const T (&values)[N], int run, size_t stride = 1) {
  return values[(static_cast<size_t>(run) / stride) % N];
}

// The baselines' top-k contract: exactly the k highest-scoring eligible
// attributes (the suite's tables have no ties).
bool IsExactTopK(const TopKResult& result, const std::vector<double>& exact,
                 std::vector<size_t> eligible, size_t k) {
  std::sort(eligible.begin(), eligible.end(),
            [&](size_t a, size_t b) { return exact[a] > exact[b]; });
  eligible.resize(std::min(k, eligible.size()));
  std::set<size_t> returned;
  for (const AttributeScore& item : result.items) returned.insert(item.index);
  return returned == std::set<size_t>(eligible.begin(), eligible.end());
}

// The baselines' filter contract: exactly the eligible attributes scoring
// at least eta.
bool IsExactFilter(const FilterResult& result,
                   const std::vector<double>& exact,
                   const std::vector<size_t>& eligible, double eta) {
  for (size_t j : eligible) {
    if (result.Contains(j) != (exact[j] >= eta)) return false;
  }
  return true;
}

class InflatedFailureSweep : public testing::Test {
 protected:
  static QueryOptions Options(int run, double epsilon) {
    QueryOptions options;
    options.failure_probability = kInflatedPf;
    options.epsilon = epsilon;
    options.seed = 7919 + static_cast<uint64_t>(run);
    return options;
  }

  // Runs query(run, stats) for every run -- it returns whether the answer
  // met its contract and fills the query's stats -- and checks the tally.
  template <typename Query>
  void Sweep(Query query) {
    int violations = 0;
    int early = 0;
    for (int run = 0; run < kSweepRuns; ++run) {
      QueryStats stats;
      if (!query(run, stats)) ++violations;
      if (!stats.exhausted_dataset) ++early;
    }
    RecordProperty("violations", violations);
    RecordProperty("early_stops", early);
    const double runs = kSweepRuns;
    EXPECT_LE(violations,
              kInflatedPf * runs +
                  3.0 * std::sqrt(kInflatedPf * (1.0 - kInflatedPf) * runs));
    EXPECT_GT(early, 0);
  }

  // Records `result`'s stats and applies `contract` to it; an error counts
  // as a violation and fails the test.
  template <typename R, typename Contract>
  static bool Check(const Result<R>& result, QueryStats& stats,
                    Contract contract) {
    if (!result.ok()) {
      ADD_FAILURE() << result.status().ToString();
      return false;
    }
    stats = result->stats;
    return contract(*result);
  }

  const Table entropy_table_ = MakeEntropyTable(
      {5.2, 4.8, 4.0, 3.6, 3.0, 2.2, 1.5, 0.8, 0.3}, kRows, 1);
  const Table mi_table_ =
      MakeMiTable({0.95, 0.8, 0.6, 0.4, 0.25, 0.1, 0.0}, kRows, 1);
  const std::vector<double> entropies_ = ExactEntropies(entropy_table_);
  const std::vector<double> mis_ =
      ExactMutualInformations(mi_table_, 0).value();
  const std::vector<double> nmis_ = ExactNormalizedMis(mi_table_, 0).value();
  const std::vector<size_t> all_ = AllIndices(entropy_table_.num_columns());
  const std::vector<size_t> candidates_ =
      AllIndicesExcept(mi_table_.num_columns(), 0);
};

TEST_F(InflatedFailureSweep, EntropyTopK) {
  Sweep([&](int run, QueryStats& stats) {
    const size_t k = Pick(kEntropyKs, run);
    const QueryOptions options = Options(run, Pick(kEntropyEpsilons, run, 4));
    return Check(SwopeTopKEntropy(entropy_table_, k, options), stats,
                 [&](const TopKResult& r) {
                   return SatisfiesApproxTopK(r.items, entropies_, all_, k,
                                              options.epsilon);
                 });
  });
}

TEST_F(InflatedFailureSweep, EntropyFilter) {
  Sweep([&](int run, QueryStats& stats) {
    const double eta = Pick(kEntropyEtas, run);
    const QueryOptions options = Options(run, Pick(kEntropyEpsilons, run, 5));
    return Check(SwopeFilterEntropy(entropy_table_, eta, options), stats,
                 [&](const FilterResult& r) {
                   return SatisfiesApproxFilter(r, entropies_, all_, eta,
                                                options.epsilon);
                 });
  });
}

TEST_F(InflatedFailureSweep, MiTopK) {
  Sweep([&](int run, QueryStats& stats) {
    const size_t k = Pick(kMiKs, run);
    const QueryOptions options = Options(run, Pick(kMiEpsilons, run, 3));
    return Check(SwopeTopKMi(mi_table_, 0, k, options), stats,
                 [&](const TopKResult& r) {
                   return SatisfiesApproxTopK(r.items, mis_, candidates_, k,
                                              options.epsilon);
                 });
  });
}

TEST_F(InflatedFailureSweep, MiFilter) {
  Sweep([&](int run, QueryStats& stats) {
    const double eta = Pick(kMiEtas, run);
    const QueryOptions options = Options(run, Pick(kMiEpsilons, run, 5));
    return Check(SwopeFilterMi(mi_table_, 0, eta, options), stats,
                 [&](const FilterResult& r) {
                   return SatisfiesApproxFilter(r, mis_, candidates_, eta,
                                                options.epsilon);
                 });
  });
}

TEST_F(InflatedFailureSweep, NmiTopK) {
  Sweep([&](int run, QueryStats& stats) {
    const size_t k = Pick(kMiKs, run);
    const QueryOptions options = Options(run, Pick(kMiEpsilons, run, 3));
    return Check(SwopeTopKNmi(mi_table_, 0, k, options), stats,
                 [&](const TopKResult& r) {
                   return SatisfiesApproxTopK(r.items, nmis_, candidates_, k,
                                              options.epsilon);
                 });
  });
}

TEST_F(InflatedFailureSweep, NmiFilter) {
  Sweep([&](int run, QueryStats& stats) {
    const double eta = Pick(kNmiEtas, run);
    const QueryOptions options = Options(run, Pick(kMiEpsilons, run, 5));
    return Check(SwopeFilterNmi(mi_table_, 0, eta, options), stats,
                 [&](const FilterResult& r) {
                   return SatisfiesApproxFilter(r, nmis_, candidates_, eta,
                                                options.epsilon);
                 });
  });
}

TEST_F(InflatedFailureSweep, EntropyRank) {
  Sweep([&](int run, QueryStats& stats) {
    const size_t k = Pick(kEntropyKs, run);
    return Check(EntropyRankTopK(entropy_table_, k, Options(run, 0.1)), stats,
                 [&](const TopKResult& r) {
                   return IsExactTopK(r, entropies_, all_, k);
                 });
  });
}

TEST_F(InflatedFailureSweep, EntropyFilterBaseline) {
  Sweep([&](int run, QueryStats& stats) {
    const double eta = Pick(kEntropyEtas, run);
    return Check(EntropyFilterQuery(entropy_table_, eta, Options(run, 0.1)),
                 stats, [&](const FilterResult& r) {
                   return IsExactFilter(r, entropies_, all_, eta);
                 });
  });
}

TEST_F(InflatedFailureSweep, MiRank) {
  Sweep([&](int run, QueryStats& stats) {
    const size_t k = Pick(kMiKs, run);
    return Check(MiRankTopK(mi_table_, 0, k, Options(run, 0.1)), stats,
                 [&](const TopKResult& r) {
                   return IsExactTopK(r, mis_, candidates_, k);
                 });
  });
}

TEST_F(InflatedFailureSweep, MiFilterBaseline) {
  Sweep([&](int run, QueryStats& stats) {
    const double eta = Pick(kMiEtas, run);
    return Check(MiFilterQuery(mi_table_, 0, eta, Options(run, 0.1)), stats,
                 [&](const FilterResult& r) {
                   return IsExactFilter(r, mis_, candidates_, eta);
                 });
  });
}

// The sampling cost must respond to the problem difficulty the way
// Theorems 2 and 4 predict: more samples for smaller epsilon and for
// smaller thresholds.
TEST(GuaranteeScalingTest, SamplesGrowAsEpsilonShrinks) {
  const Table table =
      MakeEntropyTable({4.0, 3.5, 3.0, 2.5, 2.0, 1.5}, 100000, 7);
  uint64_t previous = 0;
  for (double eps : {0.5, 0.25, 0.1, 0.05}) {
    QueryOptions options;
    options.epsilon = eps;
    auto result = SwopeTopKEntropy(table, 2, options);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->stats.final_sample_size, previous) << "eps " << eps;
    previous = result->stats.final_sample_size;
  }
}

TEST(GuaranteeScalingTest, FilterSamplesGrowAsEtaShrinks) {
  // Theorem 4: cost ~ 1/(eps*eta)^2, dominated by attributes whose score
  // sits inside the eta-band (only the width rule can resolve them). Pit
  // a small and a large threshold against columns whose entropy equals
  // the threshold.
  QueryOptions options;
  options.epsilon = 0.1;
  uint64_t samples_small = 0;
  uint64_t samples_large = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const double eta = pass == 0 ? 0.5 : 3.0;
    const Table table =
        MakeEntropyTable({eta, eta, eta, eta}, 200000, 8 + pass);
    auto result = SwopeFilterEntropy(table, eta, options);
    ASSERT_TRUE(result.ok());
    (pass == 0 ? samples_small : samples_large) =
        result->stats.final_sample_size;
  }
  EXPECT_GT(samples_small, samples_large);
}

}  // namespace
}  // namespace swope
