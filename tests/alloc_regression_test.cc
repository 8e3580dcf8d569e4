// Zero-allocation serving regression test.
//
// Interposes global operator new/delete with a counting allocator and
// provides the strong definition of swope::AllocationCount() (the weak
// default in src/common/alloc_hook.cc yields to it). The test then pins
// the steady-state contract: with a pooled QueryMemory (arena + scratch)
// and a pre-built shared row order, a warmed-up serial query performs
// ZERO heap allocations -- not "few", zero. Any regression that slips a
// per-query std::vector, std::string, or node allocation back into the
// core path fails here with an exact count.
//
// The interposer also counts bytes, which pins the write paths: a heap
// registration allocates its table's payload once, and an ingest one
// successor payload plus O(batch) -- no hidden copy of the table.
//
// Under ASan/TSan the sanitizer runtime owns operator new, so the
// interposer is compiled out and the tests skip.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/alloc_hook.h"
#include "src/core/query_memory.h"
#include "src/core/query_options.h"
#include "src/core/query_result.h"
#include "src/core/shared_prefix.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/engine/query_engine.h"
#include "src/engine/query_spec.h"
#include "src/table/binary_io.h"
#include "src/table/shuffle.h"
#include "src/table/table.h"
#include "tests/test_util.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SWOPE_ALLOC_INTERPOSER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SWOPE_ALLOC_INTERPOSER 0
#else
#define SWOPE_ALLOC_INTERPOSER 1
#endif
#else
#define SWOPE_ALLOC_INTERPOSER 1
#endif

#if SWOPE_ALLOC_INTERPOSER

namespace {
// Relaxed is fine: the serial test path is single-threaded and only
// deltas are compared.
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};

void Count(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* CountedNew(size_t size) {
  Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedNewAligned(size_t size, std::align_val_t alignment) {
  Count(size);
  if (void* p = std::aligned_alloc(static_cast<size_t>(alignment),
                                   (size + static_cast<size_t>(alignment) - 1) /
                                       static_cast<size_t>(alignment) *
                                       static_cast<size_t>(alignment))) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

// Strong definition: overrides the weak zero in src/common/alloc_hook.cc.
namespace swope {
uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace swope

void* operator new(size_t size) { return CountedNew(size); }
void* operator new[](size_t size) { return CountedNew(size); }
void* operator new(size_t size, std::align_val_t a) {
  return CountedNewAligned(size, a);
}
void* operator new[](size_t size, std::align_val_t a) {
  return CountedNewAligned(size, a);
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  Count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  Count(size);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // SWOPE_ALLOC_INTERPOSER

namespace swope {
namespace {

#if !SWOPE_ALLOC_INTERPOSER
TEST(AllocRegressionTest, SkippedUnderSanitizers) {
  GTEST_SKIP() << "sanitizer runtime owns operator new; interposer disabled";
}
#else

// Runs `query` against pooled memory and returns the heap-allocation
// count of the LAST of `rounds` executions (earlier ones are warmup:
// they size the arena blocks and decode buffers).
template <typename QueryFn>
uint64_t SteadyStateAllocs(const std::shared_ptr<QueryMemoryPool>& pool,
                           QueryFn query, int rounds) {
  uint64_t last = 0;
  for (int i = 0; i < rounds; ++i) {
    QueryMemoryLease lease = QueryMemoryPool::Acquire(pool);
    const uint64_t before = AllocationCount();
    {
      QueryOptions options;
      options.seed = 7;
      options.memory = lease->arena().resource();
      options.scratch = &lease->scratch();
      auto result = query(options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      last = AllocationCount() - before;
    }  // result (arena-backed) dies before the lease rewinds the arena
  }
  return last;
}

TEST(AllocRegressionTest, InterposerCounts) {
  const uint64_t before = AllocationCount();
  auto p = std::make_unique<std::vector<int>>(100);
  const uint64_t after = AllocationCount();
  EXPECT_GT(after, before);
  (void)p;
}

TEST(AllocRegressionTest, EntropyTopKSteadyStateIsZeroAlloc) {
  const uint64_t rows = 4000;
  Table table = test::MakeEntropyTable({1.0, 2.5, 0.5, 1.8, 3.0}, rows, 11);
  auto prefix = std::make_shared<SharedPrefix>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();

  const uint64_t allocs = SteadyStateAllocs(
      pool,
      [&](QueryOptions& options) {
        options.shared_prefix = prefix;  // else the sampler shuffles per query
        return SwopeTopKEntropy(table, /*k=*/2, options);
      },
      /*rounds=*/4);
  EXPECT_EQ(allocs, 0u) << "entropy top-k steady state must not touch the "
                           "heap; see docs/ENGINE.md";
}

TEST(AllocRegressionTest, EntropyFilterSteadyStateIsZeroAlloc) {
  const uint64_t rows = 4000;
  Table table = test::MakeEntropyTable({1.0, 2.5, 0.5, 1.8}, rows, 13);
  auto prefix = std::make_shared<SharedPrefix>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();

  const uint64_t allocs = SteadyStateAllocs(
      pool,
      [&](QueryOptions& options) {
        options.epsilon = 0.05;
        options.shared_prefix = prefix;
        return SwopeFilterEntropy(table, /*eta=*/1.5, options);
      },
      /*rounds=*/4);
  EXPECT_EQ(allocs, 0u) << "entropy filter steady state must not touch the "
                           "heap; see docs/ENGINE.md";
}

TEST(AllocRegressionTest, MiTopKSteadyStateIsZeroAlloc) {
  const uint64_t rows = 4000;
  Table table = test::MakeMiTable({0.9, 0.1, 0.5}, rows, 17);
  auto prefix = std::make_shared<SharedPrefix>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();

  const uint64_t allocs = SteadyStateAllocs(
      pool,
      [&](QueryOptions& options) {
        options.epsilon = 0.5;
        options.shared_prefix = prefix;
        return SwopeTopKMi(table, /*target=*/0, /*k=*/1, options);
      },
      /*rounds=*/4);
  EXPECT_EQ(allocs, 0u) << "MI top-k steady state must not touch the heap; "
                           "see docs/ENGINE.md";
}

TEST(AllocRegressionTest, ColdQueryAllocatesThenPoolAbsorbsIt) {
  const uint64_t rows = 2000;
  Table table = test::MakeEntropyTable({1.0, 2.0}, rows, 19);
  auto prefix = std::make_shared<SharedPrefix>(
      ShuffledRowOrder(static_cast<uint32_t>(rows), /*seed=*/7));
  auto pool = std::make_shared<QueryMemoryPool>();

  // First execution is allowed (expected, even) to allocate: it sizes
  // the arena chain and the scratch buffers.
  uint64_t first = 0;
  {
    QueryMemoryLease lease = QueryMemoryPool::Acquire(pool);
    QueryOptions options;
    options.seed = 7;
    options.shared_prefix = prefix;
    options.memory = lease->arena().resource();
    options.scratch = &lease->scratch();
    const uint64_t before = AllocationCount();
    auto result = SwopeTopKEntropy(table, 1, options);
    ASSERT_TRUE(result.ok());
    first = AllocationCount() - before;
  }
  EXPECT_GT(first, 0u);
  EXPECT_GT(pool->IdleArenaBytes(), 0u);
}

// Warm entropy queries through the engine. Once the shared prefix state
// covers a query's rounds, executing it reads H_S from the state, and
// nothing from admission through dispatch touches the heap: the profile's
// allocs count is zero even though every query differs from the last.
TEST(AllocRegressionTest, EngineWarmEntropyQueriesAreZeroAlloc) {
  EngineConfig config;
  config.num_threads = 1;
  config.result_cache_capacity = 0;  // every query executes
  QueryEngine engine(config);
  ASSERT_TRUE(engine
                  .RegisterDataset("ds", test::MakeEntropyTable(
                                             {1.0, 2.5, 0.5, 1.8, 3.0},
                                             /*rows=*/4000, /*seed=*/11))
                  .ok());
  auto allocs = [&engine](QueryKind kind, size_t k, double epsilon) {
    QuerySpec spec;
    spec.dataset = "ds";
    spec.kind = kind;
    spec.k = k;
    spec.eta = 1.5;
    spec.options.epsilon = epsilon;
    spec.profile = true;
    auto response = engine.Run(spec);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response->profile->Allocs() : ~uint64_t{0};
  };
  // Warm-up: the tightest queries count every round the later ones read,
  // and size the pooled arena.
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t k : {1, 3}) allocs(QueryKind::kEntropyTopK, k, 0.01);
    allocs(QueryKind::kEntropyFilter, 0, 0.01);
  }
  const uint64_t counted = engine.GetCounters().prefix_cells_counted;
  for (double epsilon : {0.05, 0.1, 0.2}) {
    for (size_t k : {1, 3}) {
      EXPECT_EQ(allocs(QueryKind::kEntropyTopK, k, epsilon), 0u)
          << "entropy top-k k=" << k << " epsilon=" << epsilon;
    }
    EXPECT_EQ(allocs(QueryKind::kEntropyFilter, 0, epsilon), 0u)
        << "entropy filter epsilon=" << epsilon;
  }
  // They read every round from the state.
  EXPECT_EQ(engine.GetCounters().prefix_cells_counted, counted);
}

// Eight label-less columns of support 200 (width 8) and one of support
// 1001 (width 10), which max_support = 1000 drops.
Table WideTable(uint64_t rows) {
  std::vector<Column> columns;
  for (uint32_t j = 0; j < 9; ++j) {
    const uint32_t support = j < 8 ? 200 : 1001;
    std::vector<ValueCode> codes(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      codes[i] = static_cast<ValueCode>((i * (2 * j + 1) + j) % support);
    }
    columns.push_back(
        Column::FromCodes("c" + std::to_string(j), std::move(codes)));
  }
  return Table::Make(std::move(columns)).value();
}

// A heap registration with a support cut allocates the file's payload
// once, plus each column's fixed validation scratch: dropping columns and
// registering move the table (copying it at each step allocated about
// 3x).
TEST(AllocRegressionTest, HeapRegistrationAllocatesThePayloadOnce) {
  const Table table = WideTable(100000);
  const uint64_t payload = table.MemoryBytes();
  const std::string path = ::testing::TempDir() + "/alloc_register.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(table, path).ok());
  QueryEngine engine;

  const uint64_t before = g_allocated_bytes.load();
  ASSERT_TRUE(engine.RegisterDatasetFile("ds", path, /*max_support=*/1000)
                  .ok());
  const uint64_t allocated = g_allocated_bytes.load() - before;
  std::remove(path.c_str());

  EXPECT_EQ(engine.registry().Get("ds").value()->table.num_columns(), 8u);
  EXPECT_GE(allocated, payload);
  EXPECT_LT(allocated, payload + payload / 4)
      << "allocated " << allocated << " bytes for a " << payload
      << "-byte payload";
}

// Sketched registrations allocate the payload once as well. Attaching
// sidecars on load moves the columns (copying every column allocated
// about 2.2x), and a v3 image's stored sidecars ride on the columns being
// loaded instead of on copies of them.
TEST(AllocRegressionTest, SketchedHeapRegistrationAllocatesThePayloadOnce) {
  const Table table = WideTable(100000);
  const uint64_t payload = table.MemoryBytes();
  const std::string path = ::testing::TempDir() + "/alloc_sketched.swpb";
  ASSERT_TRUE(WriteBinaryTableFile(table, path).ok());
  QueryEngine engine;

  // Sketches attached on load: only the support-1001 column gets one.
  uint64_t before = g_allocated_bytes.load();
  ASSERT_TRUE(engine
                  .RegisterDatasetFile("ds", path, /*max_support=*/0,
                                       /*sketch_epsilon=*/0.05,
                                       /*sketch_threshold=*/1000)
                  .ok());
  uint64_t allocated = g_allocated_bytes.load() - before;
  const Table& loaded = engine.registry().Get("ds").value()->table;
  ASSERT_TRUE(loaded.column(8).has_sketch());
  EXPECT_FALSE(loaded.column(0).has_sketch());
  EXPECT_GE(allocated, payload);
  EXPECT_LT(allocated, payload + payload / 4)
      << "attaching sketches allocated " << allocated << " bytes for a "
      << payload << "-byte payload";

  // The same table stored with its sidecar (a v3 image) and loaded back.
  ASSERT_TRUE(WriteBinaryTableFile(loaded, path).ok());
  before = g_allocated_bytes.load();
  ASSERT_TRUE(engine.RegisterDatasetFile("v3", path).ok());
  allocated = g_allocated_bytes.load() - before;
  std::remove(path.c_str());

  EXPECT_TRUE(
      engine.registry().Get("v3").value()->table.column(8).has_sketch());
  EXPECT_GE(allocated, payload);
  EXPECT_LT(allocated, payload + payload / 4)
      << "loading a sketched v3 image allocated " << allocated
      << " bytes for a " << payload << "-byte payload";
}

// An ingest allocates its successor's payload plus O(batch): the
// appended table is moved into the registry (copying it there allocated
// about 2x).
TEST(AllocRegressionTest, IngestAllocatesOneSuccessorPayload) {
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterDataset("ds", WideTable(100000)).ok());
  const std::vector<std::vector<std::string>> batch(
      500, std::vector<std::string>(9, "7"));
  const uint64_t payload = engine.registry().Get("ds").value()->memory_bytes;

  const uint64_t before = g_allocated_bytes.load();
  ASSERT_TRUE(engine.Ingest("ds", batch).ok());
  const uint64_t allocated = g_allocated_bytes.load() - before;

  EXPECT_GE(allocated, payload);
  EXPECT_LT(allocated, payload + payload / 4)
      << "allocated " << allocated << " bytes for a " << payload
      << "-byte payload";
}

#endif  // SWOPE_ALLOC_INTERPOSER

}  // namespace
}  // namespace swope
