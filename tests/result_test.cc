#include "src/common/result.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace swope {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("no such"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_EQ(result.status().message(), "no such");
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> ok(7);
  Result<int> bad(Status::Internal("x"));
  EXPECT_EQ(ok.value_or(-1), 7);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ResultTest, ArrowOperatorReachesMembers) {
  Result<std::string> result(std::string("hello"));
  EXPECT_EQ(result->size(), 5u);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> result(std::vector<int>{1, 2, 3});
  std::vector<int> moved = std::move(result).value();
  EXPECT_EQ(moved.size(), 3u);
}

TEST(ResultTest, DereferencingAnRvalueMovesTheValue) {
  auto owned = std::make_unique<int>(9);
  const int* raw = owned.get();
  Result<std::unique_ptr<int>> result(std::move(owned));
  // Compiles only because *std::move(result) yields an rvalue: the
  // const& overload would need to copy a move-only value.
  std::unique_ptr<int> moved = *std::move(result);
  EXPECT_EQ(moved.get(), raw);
  EXPECT_EQ(*moved, 9);
}

TEST(ResultTest, CopyPreservesState) {
  Result<int> original(5);
  Result<int> copy = original;
  EXPECT_TRUE(copy.ok());
  EXPECT_EQ(copy.value(), 5);

  Result<int> error(Status::IOError("io"));
  Result<int> error_copy = error;
  EXPECT_TRUE(error_copy.status().IsIOError());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  SWOPE_ASSIGN_OR_RETURN(int h, Half(x));
  SWOPE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto good = QuarterViaMacro(8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 2);

  auto bad = QuarterViaMacro(6);  // 6/2 = 3 is odd
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

}  // namespace
}  // namespace swope
