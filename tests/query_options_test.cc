#include "src/core/query_options.h"

#include <cmath>

#include <gtest/gtest.h>

namespace swope {
namespace {

TEST(QueryOptionsTest, DefaultsAreValid) {
  QueryOptions options;
  EXPECT_TRUE(options.Validate().ok());
  EXPECT_DOUBLE_EQ(options.epsilon, 0.1);
  EXPECT_DOUBLE_EQ(options.growth_factor, 2.0);
}

TEST(QueryOptionsTest, RejectsBadEpsilon) {
  QueryOptions options;
  options.epsilon = 0.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.epsilon = 1.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.epsilon = -0.5;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.epsilon = 0.999;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(QueryOptionsTest, RejectsBadFailureProbability) {
  QueryOptions options;
  options.failure_probability = 1.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.failure_probability = -0.1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.failure_probability = 0.0;  // selects 1/N default
  EXPECT_TRUE(options.Validate().ok());
}

TEST(QueryOptionsTest, RejectsBadGrowthFactor) {
  QueryOptions options;
  options.growth_factor = 1.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.growth_factor = 0.5;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.growth_factor = 1.5;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(QueryOptionsTest, EpsilonOpenIntervalBoundaries) {
  // (0, 1) is open on both ends, but anything strictly inside is fine --
  // including the closest representable neighbours of the endpoints.
  QueryOptions options;
  options.epsilon = std::nextafter(0.0, 1.0);
  EXPECT_TRUE(options.Validate().ok());
  options.epsilon = std::nextafter(1.0, 0.0);
  EXPECT_TRUE(options.Validate().ok());
  options.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(QueryOptionsTest, GrowthFactorExactlyOneIsRejected) {
  QueryOptions options;
  options.growth_factor = 1.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.growth_factor = std::nextafter(1.0, 2.0);
  EXPECT_TRUE(options.Validate().ok());
  options.growth_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(QueryOptionsTest, FailureProbabilityBoundaries) {
  QueryOptions options;
  options.failure_probability = std::nextafter(1.0, 0.0);
  EXPECT_TRUE(options.Validate().ok());
  options.failure_probability = std::nextafter(0.0, -1.0);
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.failure_probability = -1e-300;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(QueryOptionsTest, EngineHooksDefaultNull) {
  // shared_prefix / control are engine-managed; default-constructed
  // options must not carry them (QuerySpec::Validate relies on this).
  QueryOptions options;
  EXPECT_EQ(options.shared_prefix, nullptr);
  EXPECT_EQ(options.control, nullptr);
}

TEST(QueryOptionsTest, RejectsZeroDensePairLimit) {
  QueryOptions options;
  options.dense_pair_limit = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(QueryOptionsTest, ResolveFailureProbabilityDefaultsToOneOverN) {
  QueryOptions options;
  EXPECT_DOUBLE_EQ(options.ResolveFailureProbability(1000), 1e-3);
  // Tiny tables are clamped away from the vacuous p_f = 1.
  EXPECT_DOUBLE_EQ(options.ResolveFailureProbability(1), 0.5);
}

TEST(QueryOptionsTest, ResolveFailureProbabilityHonorsExplicit) {
  QueryOptions options;
  options.failure_probability = 0.05;
  EXPECT_DOUBLE_EQ(options.ResolveFailureProbability(1000), 0.05);
}

TEST(QueryOptionsTest, ResolveFailureProbabilityIsFloored) {
  QueryOptions options;
  EXPECT_GE(options.ResolveFailureProbability(~0ULL), 1e-12);
}

}  // namespace
}  // namespace swope
