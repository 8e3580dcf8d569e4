// Parameterized coverage sweeps for the confidence intervals. Lemma 3:
// for every (distribution family, sample size) combination, the entropy
// interval must contain the true empirical entropy in far more than a
// 1 - p fraction of random permutations (the bound is conservative, so
// observed coverage should be essentially 1; we assert the contractual
// 1 - p). Section 4.1: the MI interval composes three entropy intervals,
// each at failure probability p, so by the union bound it may miss the
// exact MI in at most a 3p fraction.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math.h"
#include "src/core/bounds.h"
#include "src/core/entropy.h"
#include "src/core/frequency_counter.h"
#include "src/core/pair_counter.h"
#include "src/datagen/correlated.h"
#include "src/datagen/generator.h"
#include "src/table/column_view.h"
#include "src/table/shuffle.h"

namespace swope {
namespace {

struct CoverageCase {
  std::string name;
  ColumnSpec spec;
  uint64_t sample_size;
};

class BoundsCoverageTest : public testing::TestWithParam<CoverageCase> {};

TEST_P(BoundsCoverageTest, IntervalCoversEmpiricalEntropy) {
  const CoverageCase& param = GetParam();
  constexpr uint64_t kRows = 16384;
  constexpr double kP = 0.1;
  constexpr int kTrials = 120;

  auto column = GenerateColumn(param.spec, kRows, 101);
  ASSERT_TRUE(column.ok());
  const double truth = ExactEntropy(*column);

  int misses = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto order = ShuffledRowOrder(kRows, 9000 + trial);
    FrequencyCounter counter(column->support());
    std::vector<ValueCode> scratch;
    counter.AddCodes(
        ColumnView(*column).Gather(order, 0, param.sample_size, scratch),
        param.sample_size);
    const EntropyInterval interval =
        MakeEntropyInterval(counter.SampleEntropy(), column->support(),
                            kRows, param.sample_size, kP);
    EXPECT_LE(interval.lower, interval.upper);
    if (truth < interval.lower - 1e-12 || truth > interval.upper + 1e-12) {
      ++misses;
    }
  }
  EXPECT_LE(misses, static_cast<int>(kTrials * kP))
      << param.name << " truth=" << truth;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundsCoverageTest,
    testing::Values(
        CoverageCase{"uniform_small_m", ColumnSpec::Uniform("u", 16), 256},
        CoverageCase{"uniform_large_m", ColumnSpec::Uniform("u", 16), 8192},
        CoverageCase{"zipf_small_m", ColumnSpec::Zipf("z", 200, 1.1), 256},
        CoverageCase{"zipf_large_m", ColumnSpec::Zipf("z", 200, 1.1), 8192},
        CoverageCase{"geometric", ColumnSpec::Geometric("g", 40, 0.25),
                     1024},
        CoverageCase{"two_level", ColumnSpec::TwoLevel("t", 20, 0.95),
                     1024},
        CoverageCase{"near_constant",
                     ColumnSpec::EntropyTargeted("e", 100, 0.1), 1024},
        CoverageCase{"high_entropy",
                     ColumnSpec::EntropyTargeted("e", 512, 8.5), 4096}),
    [](const testing::TestParamInfo<CoverageCase>& param_info) {
      return param_info.param.name;
    });

struct MiCoverageCase {
  std::string name;
  CategoricalDistribution target;
  CategoricalDistribution noise;
  double rho;
  uint64_t sample_size;
  /// Layout the joint counter ends in (dense, or still hashed).
  bool dense;
};

class MiBoundsCoverageTest : public testing::TestWithParam<MiCoverageCase> {};

TEST_P(MiBoundsCoverageTest, IntervalCoversExactMutualInformation) {
  const MiCoverageCase& param = GetParam();
  constexpr uint64_t kRows = 16384;
  constexpr double kP = 0.1;
  constexpr int kTrials = 120;

  CorrelatedPairSpec spec;
  spec.x_dist = param.target;
  spec.y_noise = param.noise;
  spec.rho = param.rho;
  auto pair = GenerateCorrelatedPair(spec, kRows, 202);
  ASSERT_TRUE(pair.ok());
  const Column& target = pair->first;
  const Column& candidate = pair->second;
  auto truth = ExactMutualInformation(target, candidate);
  ASSERT_TRUE(truth.ok());
  const uint32_t u_t = target.support();
  const uint32_t u_a = candidate.support();
  const uint64_t m = param.sample_size;

  int misses = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto order = ShuffledRowOrder(kRows, 7000 + trial);
    std::vector<ValueCode> target_slice;
    std::vector<ValueCode> candidate_slice;
    const ValueCode* target_codes =
        ColumnView(target).Gather(order, 0, m, target_slice);
    const ValueCode* candidate_codes =
        ColumnView(candidate).Gather(order, 0, m, candidate_slice);
    // The scorers' counting: the target through a FrequencyCounter, the
    // candidate only through the joint, its marginal from the column sums.
    FrequencyCounter target_counter(u_t);
    target_counter.AddCodes(target_codes, m);
    PairCounter joint(u_t, u_a);
    joint.AddCodes(target_codes, candidate_codes, m);
    EXPECT_EQ(joint.is_dense(), param.dense);
    std::vector<uint64_t> marginal(u_a);
    const double joint_entropy = joint.SampleJointEntropy(marginal.data());

    const MiInterval interval = MakeMiInterval(
        MakeEntropyInterval(target_counter.SampleEntropy(), u_t, kRows, m,
                            kP),
        MakeEntropyInterval(EntropyFromCounts(marginal, m), u_a, kRows, m,
                            kP),
        MakeEntropyInterval(joint_entropy, uint64_t{u_t} * u_a, kRows, m,
                            kP));
    EXPECT_LE(interval.lower, interval.upper);
    if (*truth < interval.lower - 1e-12 || *truth > interval.upper + 1e-12) {
      ++misses;
    }
  }
  EXPECT_LE(misses, static_cast<int>(kTrials * 3 * kP))
      << param.name << " truth=" << *truth;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MiBoundsCoverageTest,
    testing::Values(
        MiCoverageCase{"independent_small_m",
                       CategoricalDistribution::Uniform(8),
                       CategoricalDistribution::Uniform(8), 0.0, 256,
                       true},
        MiCoverageCase{"independent_large_m",
                       CategoricalDistribution::Uniform(8),
                       CategoricalDistribution::Uniform(8), 0.0, 8192,
                       true},
        MiCoverageCase{"half_copy", CategoricalDistribution::Zipf(16, 1.0),
                       CategoricalDistribution::Uniform(16), 0.5, 1024,
                       true},
        MiCoverageCase{"strong_copy",
                       CategoricalDistribution::Geometric(12, 0.3),
                       CategoricalDistribution::Zipf(20, 1.2), 0.9, 2048,
                       true},
        // 64 * 64 = 4096 cells: dense from the start.
        MiCoverageCase{"dense_limit_domain",
                       CategoricalDistribution::Uniform(64),
                       CategoricalDistribution::Uniform(64), 0.7, 4096,
                       true},
        // 80 * 100 = 8000 cells: hashed at this sample size ...
        MiCoverageCase{"hashed_domain", CategoricalDistribution::Uniform(80),
                       CategoricalDistribution::Zipf(100, 0.8), 0.3, 512,
                       false},
        // ... and migrated to dense past 1000 distinct pairs.
        MiCoverageCase{"migrated_domain",
                       CategoricalDistribution::Uniform(80),
                       CategoricalDistribution::Zipf(100, 0.8), 0.3, 8192,
                       true}),
    [](const testing::TestParamInfo<MiCoverageCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace swope
