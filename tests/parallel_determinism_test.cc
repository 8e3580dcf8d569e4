// Golden determinism regression for the unified driver's parallel path:
// for a fixed seed, running with QueryOptions::pool set (N worker
// threads, either scheduling mode) must produce results byte-identical to
// the serial path across all six query kinds, the four sampling
// baselines, and on sketch-backed candidates — same items (bitwise-equal
// doubles), same stats. The argument for why this holds by construction
// is in docs/CORE.md.

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/core/sampling_baselines.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_filter_mi.h"
#include "src/core/swope_filter_nmi.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/core/swope_topk_nmi.h"
#include "src/datagen/generator.h"
#include "src/obs/query_trace.h"
#include "tests/test_util.h"

namespace swope {
namespace {

// Bitwise equality: any divergence in ordering or arithmetic between the
// serial and parallel paths shows up here, not just large errors.
void ExpectIdentical(std::span<const AttributeScore> serial,
                     std::span<const AttributeScore> parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, parallel[i].index);
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].estimate, parallel[i].estimate);
    EXPECT_EQ(serial[i].lower, parallel[i].lower);
    EXPECT_EQ(serial[i].upper, parallel[i].upper);
  }
}

void ExpectIdentical(const QueryStats& serial, const QueryStats& parallel) {
  EXPECT_EQ(serial.final_sample_size, parallel.final_sample_size);
  EXPECT_EQ(serial.initial_sample_size, parallel.initial_sample_size);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(serial.cells_scanned, parallel.cells_scanned);
  EXPECT_EQ(serial.candidates_remaining, parallel.candidates_remaining);
  EXPECT_EQ(serial.exhausted_dataset, parallel.exhausted_dataset);
  EXPECT_EQ(serial.sketch_candidates, parallel.sketch_candidates);
}

// Every trace field except wall time is a pure function of (dataset,
// spec, seed), so serial and parallel runs must agree bitwise.
void ExpectIdentical(const QueryTrace& serial, const QueryTrace& parallel) {
  ASSERT_EQ(serial.rounds().size(), parallel.rounds().size());
  for (size_t i = 0; i < serial.rounds().size(); ++i) {
    const RoundTrace& s = serial.rounds()[i];
    const RoundTrace& p = parallel.rounds()[i];
    EXPECT_EQ(s.round, p.round);
    EXPECT_EQ(s.sample_size, p.sample_size);
    EXPECT_EQ(s.lambda, p.lambda);
    EXPECT_EQ(s.max_bias, p.max_bias);
    EXPECT_EQ(s.active_before, p.active_before);
    EXPECT_EQ(s.decided, p.decided);
    EXPECT_EQ(s.cells_scanned, p.cells_scanned);
  }
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ParallelDeterminismTest()
      : entropy_table_(test::MakeEntropyTable(
            {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}, 4000, 21)),
        mi_table_(test::MakeMiTable({0.0, 0.2, 0.4, 0.6, 0.8}, 4000, 22)),
        pool_(4) {}

  QueryOptions Serial() const {
    QueryOptions options;
    options.seed = 9;
    return options;
  }

  QueryOptions Parallel() {
    QueryOptions options = Serial();
    options.pool = &pool_;
    return options;
  }

  Table entropy_table_;
  Table mi_table_;
  ThreadPool pool_;
};

TEST_F(ParallelDeterminismTest, EntropyTopK) {
  auto serial = SwopeTopKEntropy(entropy_table_, 3, Serial());
  auto parallel = SwopeTopKEntropy(entropy_table_, 3, Parallel());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial->items, parallel->items);
  ExpectIdentical(serial->stats, parallel->stats);
}

TEST_F(ParallelDeterminismTest, EntropyFilter) {
  auto serial = SwopeFilterEntropy(entropy_table_, 2.0, Serial());
  auto parallel = SwopeFilterEntropy(entropy_table_, 2.0, Parallel());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial->items, parallel->items);
  ExpectIdentical(serial->stats, parallel->stats);
}

TEST_F(ParallelDeterminismTest, MiTopK) {
  auto serial = SwopeTopKMi(mi_table_, 0, 3, Serial());
  auto parallel = SwopeTopKMi(mi_table_, 0, 3, Parallel());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial->items, parallel->items);
  ExpectIdentical(serial->stats, parallel->stats);
}

TEST_F(ParallelDeterminismTest, MiFilter) {
  auto serial = SwopeFilterMi(mi_table_, 0, 0.1, Serial());
  auto parallel = SwopeFilterMi(mi_table_, 0, 0.1, Parallel());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial->items, parallel->items);
  ExpectIdentical(serial->stats, parallel->stats);
}

TEST_F(ParallelDeterminismTest, NmiTopK) {
  auto serial = SwopeTopKNmi(mi_table_, 0, 3, Serial());
  auto parallel = SwopeTopKNmi(mi_table_, 0, 3, Parallel());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial->items, parallel->items);
  ExpectIdentical(serial->stats, parallel->stats);
}

TEST_F(ParallelDeterminismTest, NmiFilter) {
  auto serial = SwopeFilterNmi(mi_table_, 0, 0.2, Serial());
  auto parallel = SwopeFilterNmi(mi_table_, 0, 0.2, Parallel());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial->items, parallel->items);
  ExpectIdentical(serial->stats, parallel->stats);
}

// Acceptance: a traced top-k entropy query records one row per sampling
// round whose deterministic columns (M, lambda, max bias, active,
// decided, cells) are byte-identical between 1-thread and 4-thread runs.
TEST_F(ParallelDeterminismTest, EntropyTopKTraceIsDeterministic) {
  QueryTrace serial_trace;
  QueryTrace parallel_trace;
  QueryOptions serial_options = Serial();
  serial_options.trace = &serial_trace;
  QueryOptions parallel_options = Parallel();
  parallel_options.trace = &parallel_trace;

  auto serial = SwopeTopKEntropy(entropy_table_, 3, serial_options);
  auto parallel = SwopeTopKEntropy(entropy_table_, 3, parallel_options);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());

  // Tracing must not perturb the answer.
  ExpectIdentical(serial->items, parallel->items);
  ExpectIdentical(serial->stats, parallel->stats);

  // One row per round, and the rows agree bitwise.
  ASSERT_FALSE(serial_trace.empty());
  EXPECT_EQ(serial_trace.size(), serial->stats.iterations);
  ExpectIdentical(serial_trace, parallel_trace);

  // The rendered table (minus the wall-time column) is byte-equal too --
  // this is exactly what `swope_cli --trace` prints.
  EXPECT_EQ(FormatTraceTable(serial_trace, /*include_wall_time=*/false),
            FormatTraceTable(parallel_trace, /*include_wall_time=*/false));
}

// The same guarantee holds on the pair-counting (MI) path.
TEST_F(ParallelDeterminismTest, MiTopKTraceIsDeterministic) {
  QueryTrace serial_trace;
  QueryTrace parallel_trace;
  QueryOptions serial_options = Serial();
  serial_options.trace = &serial_trace;
  QueryOptions parallel_options = Parallel();
  parallel_options.trace = &parallel_trace;

  auto serial = SwopeTopKMi(mi_table_, 0, 3, serial_options);
  auto parallel = SwopeTopKMi(mi_table_, 0, 3, parallel_options);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial->items, parallel->items);
  ExpectIdentical(serial->stats, parallel->stats);
  EXPECT_EQ(serial_trace.size(), serial->stats.iterations);
  ExpectIdentical(serial_trace, parallel_trace);
  EXPECT_EQ(FormatTraceTable(serial_trace, /*include_wall_time=*/false),
            FormatTraceTable(parallel_trace, /*include_wall_time=*/false));
}

// Pool-mode and thread-count invariance: the serial baseline, and 2- and
// 4-thread pools in both scheduling modes, give byte-identical answers.
TEST_F(ParallelDeterminismTest, PoolModesAndThreadCountsAgree) {
  auto entropy_baseline = SwopeTopKEntropy(entropy_table_, 3, Serial());
  auto mi_baseline = SwopeTopKMi(mi_table_, 0, 3, Serial());
  auto nmi_baseline = SwopeFilterNmi(mi_table_, 0, 0.2, Serial());
  ASSERT_TRUE(entropy_baseline.ok());
  ASSERT_TRUE(mi_baseline.ok());
  ASSERT_TRUE(nmi_baseline.ok());

  for (size_t threads : {2, 4}) {
    for (PoolMode mode : {PoolMode::kWorkStealing, PoolMode::kSingleQueue}) {
      ThreadPool pool(threads, mode);
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " pool=" << PoolModeName(mode));
      QueryOptions options = Serial();
      options.pool = &pool;

      auto entropy = SwopeTopKEntropy(entropy_table_, 3, options);
      ASSERT_TRUE(entropy.ok());
      ExpectIdentical(entropy_baseline->items, entropy->items);
      ExpectIdentical(entropy_baseline->stats, entropy->stats);

      auto mi = SwopeTopKMi(mi_table_, 0, 3, options);
      ASSERT_TRUE(mi.ok());
      ExpectIdentical(mi_baseline->items, mi->items);
      ExpectIdentical(mi_baseline->stats, mi->stats);

      auto nmi = SwopeFilterNmi(mi_table_, 0, 0.2, options);
      ASSERT_TRUE(nmi.ok());
      ExpectIdentical(nmi_baseline->items, nmi->items);
      ExpectIdentical(nmi_baseline->stats, nmi->stats);
    }
  }
}

// The sampling baselines run on the same driver, so they inherit the
// guarantee: 2- and 4-thread pools in both scheduling modes answer
// byte-identically to the serial path.
TEST_F(ParallelDeterminismTest, SamplingBaselinesAgreeAcrossPools) {
  auto entropy_rank = EntropyRankTopK(entropy_table_, 3, Serial());
  auto entropy_filter = EntropyFilterQuery(entropy_table_, 2.0, Serial());
  auto mi_rank = MiRankTopK(mi_table_, 0, 2, Serial());
  auto mi_filter = MiFilterQuery(mi_table_, 0, 0.1, Serial());
  ASSERT_TRUE(entropy_rank.ok());
  ASSERT_TRUE(entropy_filter.ok());
  ASSERT_TRUE(mi_rank.ok());
  ASSERT_TRUE(mi_filter.ok());

  for (size_t threads : {2, 4}) {
    for (PoolMode mode : {PoolMode::kWorkStealing, PoolMode::kSingleQueue}) {
      ThreadPool pool(threads, mode);
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " pool=" << PoolModeName(mode));
      QueryOptions options = Serial();
      options.pool = &pool;

      auto rank = EntropyRankTopK(entropy_table_, 3, options);
      ASSERT_TRUE(rank.ok());
      ExpectIdentical(entropy_rank->items, rank->items);
      ExpectIdentical(entropy_rank->stats, rank->stats);

      auto filter = EntropyFilterQuery(entropy_table_, 2.0, options);
      ASSERT_TRUE(filter.ok());
      ExpectIdentical(entropy_filter->items, filter->items);
      ExpectIdentical(entropy_filter->stats, filter->stats);

      auto mi = MiRankTopK(mi_table_, 0, 2, options);
      ASSERT_TRUE(mi.ok());
      ExpectIdentical(mi_rank->items, mi->items);
      ExpectIdentical(mi_rank->stats, mi->stats);

      auto mi_f = MiFilterQuery(mi_table_, 0, 0.1, options);
      ASSERT_TRUE(mi_f.ok());
      ExpectIdentical(mi_filter->items, mi_f->items);
      ExpectIdentical(mi_filter->stats, mi_f->stats);
    }
  }
}

// Sketch-backed candidates under an intra-query pool: a table mixing
// columns above sketch_threshold (count-min path) with exact columns
// answers bitwise-identically serially and at 4 threads in both pool
// modes. The sketch path's conservative-update counting is order-
// sensitive, so this pins that each candidate still absorbs its slice in
// permutation order on the pool.
TEST_F(ParallelDeterminismTest, SketchCandidatesAgreeAcrossPools) {
  const uint64_t rows = 6000;
  const Table exact = test::MakeEntropyTable({1.0, 2.5, 4.0}, rows, 31);
  std::vector<Column> columns = exact.columns();
  // Zipf columns: a heavy head and a long tail for the sketches to absorb.
  for (const ColumnSpec& spec : {ColumnSpec::Zipf("hc0", 3000, 1.0),
                                 ColumnSpec::Zipf("hc1", 1500, 1.0)}) {
    auto column = GenerateColumn(spec, rows, 32 + columns.size());
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    columns.push_back(std::move(column).value());
  }
  auto made = Table::Make(std::move(columns));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const Table table = std::move(made).value();

  QueryOptions serial = Serial();
  serial.sketch_epsilon = 0.01;  // sketch_threshold stays 1000

  auto entropy_topk = SwopeTopKEntropy(table, 2, serial);
  auto entropy_filter = SwopeFilterEntropy(table, 3.0, serial);
  QueryOptions mi_serial = serial;
  mi_serial.epsilon = 0.5;
  auto mi_topk = SwopeTopKMi(table, 0, 2, mi_serial);
  ASSERT_TRUE(entropy_topk.ok()) << entropy_topk.status().ToString();
  ASSERT_TRUE(entropy_filter.ok()) << entropy_filter.status().ToString();
  ASSERT_TRUE(mi_topk.ok()) << mi_topk.status().ToString();
  EXPECT_EQ(entropy_topk->stats.sketch_candidates, 2u);
  EXPECT_EQ(mi_topk->stats.sketch_candidates, 2u);

  for (PoolMode mode : {PoolMode::kWorkStealing, PoolMode::kSingleQueue}) {
    ThreadPool pool(4, mode);
    SCOPED_TRACE(PoolModeName(mode));
    QueryOptions options = serial;
    options.pool = &pool;
    QueryOptions mi_options = mi_serial;
    mi_options.pool = &pool;

    auto topk = SwopeTopKEntropy(table, 2, options);
    ASSERT_TRUE(topk.ok());
    ExpectIdentical(entropy_topk->items, topk->items);
    ExpectIdentical(entropy_topk->stats, topk->stats);

    auto filter = SwopeFilterEntropy(table, 3.0, options);
    ASSERT_TRUE(filter.ok());
    ExpectIdentical(entropy_filter->items, filter->items);
    ExpectIdentical(entropy_filter->stats, filter->stats);

    auto mi = SwopeTopKMi(table, 0, 2, mi_options);
    ASSERT_TRUE(mi.ok());
    ExpectIdentical(mi_topk->items, mi->items);
    ExpectIdentical(mi_topk->stats, mi->stats);
  }
}

// Repeated parallel runs are stable against scheduling noise: several
// executions with the pool enabled agree with each other exactly.
TEST_F(ParallelDeterminismTest, RepeatedParallelRunsAgree) {
  auto first = SwopeTopKMi(mi_table_, 0, 3, Parallel());
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 5; ++run) {
    auto again = SwopeTopKMi(mi_table_, 0, 3, Parallel());
    ASSERT_TRUE(again.ok());
    ExpectIdentical(first->items, again->items);
    ExpectIdentical(first->stats, again->stats);
  }
}

}  // namespace
}  // namespace swope
