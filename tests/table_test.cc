#include "src/table/table.h"

#include <gtest/gtest.h>

namespace swope {
namespace {

Column MakeColumn(const std::string& name, uint32_t support,
                  std::vector<ValueCode> codes) {
  auto column = Column::Make(name, support, std::move(codes));
  EXPECT_TRUE(column.ok()) << column.status().ToString();
  return std::move(column).value();
}

Table MakeTestTable() {
  std::vector<Column> columns;
  columns.push_back(MakeColumn("a", 2, {0, 1, 0, 1}));
  columns.push_back(MakeColumn("b", 3, {2, 2, 1, 0}));
  columns.push_back(MakeColumn("c", 10, {9, 3, 5, 7}));
  auto table = Table::Make(std::move(columns));
  EXPECT_TRUE(table.ok());
  return std::move(table).value();
}

TEST(TableTest, BasicAccessors) {
  const Table table = MakeTestTable();
  EXPECT_EQ(table.num_rows(), 4u);
  EXPECT_EQ(table.num_columns(), 3u);
  EXPECT_EQ(table.column(1).name(), "b");
  EXPECT_EQ(table.ColumnNames(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(table.MaxSupport(), 10u);
}

TEST(TableTest, EmptyTable) {
  auto table = Table::Make({});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_EQ(table->num_columns(), 0u);
  EXPECT_EQ(table->MaxSupport(), 0u);
}

TEST(TableTest, RejectsMismatchedRowCounts) {
  std::vector<Column> columns;
  columns.push_back(MakeColumn("a", 2, {0, 1}));
  columns.push_back(MakeColumn("b", 2, {0, 1, 1}));
  auto table = Table::Make(std::move(columns));
  EXPECT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsInvalidArgument());
}

TEST(TableTest, RejectsMoreRowsThanSamplingCanIndex) {
  // Sampling indexes rows with uint32_t, so a table of 2^32 rows would be
  // silently truncated. A width-0 (constant) column stores no payload, so
  // the trusted factory builds one that long without allocating or
  // scanning.
  const uint64_t too_many = Table::kMaxRows + 1;
  auto packed = PackedCodes::FromWords(too_many, 0, {});
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  auto column = Column::FromPackedTrusted("constant", 1,
                                          std::move(packed).value(), {},
                                          nullptr);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  ASSERT_EQ(column->size(), too_many);
  std::vector<Column> columns;
  columns.push_back(std::move(column).value());
  auto table = Table::Make(std::move(columns));
  ASSERT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsInvalidArgument());
  EXPECT_NE(table.status().message().find("4294967296"), std::string::npos)
      << table.status().ToString();
}

TEST(TableTest, RejectsDuplicateNames) {
  std::vector<Column> columns;
  columns.push_back(MakeColumn("a", 2, {0}));
  columns.push_back(MakeColumn("a", 2, {1}));
  EXPECT_FALSE(Table::Make(std::move(columns)).ok());
}

TEST(TableTest, RejectsEmptyName) {
  std::vector<Column> columns;
  columns.push_back(MakeColumn("", 2, {0}));
  EXPECT_FALSE(Table::Make(std::move(columns)).ok());
}

TEST(TableTest, ColumnIndexFindsAndFails) {
  const Table table = MakeTestTable();
  auto found = table.ColumnIndex("b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 1u);
  EXPECT_TRUE(table.ColumnIndex("zzz").status().IsNotFound());
}

TEST(TableTest, DropHighSupportColumns) {
  const Table table = MakeTestTable();
  const Table pruned = table.DropHighSupportColumns(3);
  EXPECT_EQ(pruned.num_columns(), 2u);
  EXPECT_EQ(pruned.column(0).name(), "a");
  EXPECT_EQ(pruned.column(1).name(), "b");
  EXPECT_EQ(pruned.num_rows(), 4u);
}

TEST(TableTest, DropHighSupportCanEmpty) {
  const Table table = MakeTestTable();
  const Table pruned = table.DropHighSupportColumns(1);
  EXPECT_EQ(pruned.num_columns(), 0u);
}

TEST(TableTest, PermuteRowsReordersAllColumns) {
  const Table table = MakeTestTable();
  auto permuted = table.PermuteRows({3, 2, 1, 0});
  ASSERT_TRUE(permuted.ok());
  EXPECT_EQ(permuted->column(0).code(0), table.column(0).code(3));
  EXPECT_EQ(permuted->column(1).code(0), table.column(1).code(3));
  EXPECT_EQ(permuted->column(2).code(3), table.column(2).code(0));
}

TEST(TableTest, PermuteEmptyTable) {
  auto table = Table::Make({});
  ASSERT_TRUE(table.ok());
  auto permuted = table->PermuteRows({});
  ASSERT_TRUE(permuted.ok());
  EXPECT_EQ(permuted->num_rows(), 0u);
}

TEST(TableTest, PermuteIdentityIsNoOp) {
  const Table table = MakeTestTable();
  auto permuted = table.PermuteRows({0, 1, 2, 3});
  ASSERT_TRUE(permuted.ok());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(permuted->column(c).codes(), table.column(c).codes());
  }
}

TEST(TableTest, PermutePreservesLabels) {
  auto labeled = Column::Make("l", 2, {0, 1, 1, 0}, {"no", "yes"});
  ASSERT_TRUE(labeled.ok());
  auto table = Table::Make({std::move(labeled).value()});
  ASSERT_TRUE(table.ok());
  auto permuted = table->PermuteRows({3, 2, 1, 0});
  ASSERT_TRUE(permuted.ok());
  EXPECT_EQ(permuted->column(0).labels(),
            (std::vector<std::string>{"no", "yes"}));
}

TEST(TableTest, PermuteRowsRejectsBadPermutation) {
  const Table table = MakeTestTable();
  EXPECT_FALSE(table.PermuteRows({0, 1, 2}).ok());        // wrong size
  EXPECT_FALSE(table.PermuteRows({0, 0, 1, 2}).ok());     // duplicate
  EXPECT_FALSE(table.PermuteRows({0, 1, 2, 9}).ok());     // out of range
}

}  // namespace
}  // namespace swope
