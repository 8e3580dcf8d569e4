#include "src/engine/permutation_cache.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "src/table/shuffle.h"

namespace swope {
namespace {

TEST(PermutationCacheTest, SharesOneOrderPerKey) {
  PermutationCache cache(4);
  auto first = cache.GetOrCreate(7, 100, 42, false);
  auto second = cache.GetOrCreate(7, 100, 42, false);
  ASSERT_NE(first, nullptr);
  // Identical keys share the exact same prefix, not a copy.
  EXPECT_EQ(first.get(), second.get());

  const PermutationCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PermutationCacheTest, MatchesShuffledRowOrder) {
  PermutationCache cache(4);
  auto order = cache.GetOrCreate(7, 256, 42, false);
  ASSERT_NE(order, nullptr);
  // Sharing must not change what any single query would have seen.
  EXPECT_EQ(order->order(), ShuffledRowOrder(256, 42));
}

TEST(PermutationCacheTest, DistinctKeysGetDistinctOrders) {
  PermutationCache cache(8);
  auto base = cache.GetOrCreate(7, 100, 42, false);
  EXPECT_NE(base.get(), cache.GetOrCreate(8, 100, 42, false).get());
  EXPECT_NE(base.get(), cache.GetOrCreate(7, 100, 43, false).get());
  EXPECT_NE(base.get(), cache.GetOrCreate(7, 100, 42, true).get());
}

TEST(PermutationCacheTest, SequentialOrderIsIdentityAndIgnoresSeed) {
  PermutationCache cache(4);
  auto a = cache.GetOrCreate(7, 50, 1, true);
  auto b = cache.GetOrCreate(7, 50, 999, true);
  ASSERT_NE(a, nullptr);
  // Sequential sampling reads rows in storage order; the seed is moot.
  EXPECT_EQ(a.get(), b.get());
  std::vector<uint32_t> identity(50);
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(a->order(), identity);
}

TEST(PermutationCacheTest, OrderIsAPermutation) {
  PermutationCache cache(4);
  auto order = cache.GetOrCreate(7, 512, 3, false);
  ASSERT_NE(order, nullptr);
  std::vector<uint32_t> sorted = order->order();
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t r = 0; r < 512; ++r) EXPECT_EQ(sorted[r], r);
}

TEST(PermutationCacheTest, EvictsOverCapacityButHandlesSurvive) {
  PermutationCache cache(1);
  auto first = cache.GetOrCreate(1, 64, 1, false);
  auto second = cache.GetOrCreate(2, 64, 1, false);  // evicts key 1
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 1u);
  // The evicted order stays valid for the query still holding it.
  EXPECT_EQ(first->order().size(), 64u);
  EXPECT_EQ(second->order().size(), 64u);
}

TEST(PermutationCacheTest, EraseDropsOnlyThatFingerprint) {
  PermutationCache cache(8);
  auto held = cache.GetOrCreate(7, 100, 1, false);
  cache.GetOrCreate(7, 100, 2, false);
  cache.GetOrCreate(7, 100, 0, true);
  auto other = cache.GetOrCreate(8, 100, 1, false);
  cache.GetOrCreate(6, 100, 1, false);
  cache.Erase(7);
  EXPECT_EQ(cache.GetStats().entries, 2u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);
  // A holder keeps its order; the neighbours' entries are untouched.
  EXPECT_EQ(held->order(), ShuffledRowOrder(100, 1));
  EXPECT_EQ(cache.GetOrCreate(8, 100, 1, false).get(), other.get());
  cache.Erase(9);  // nothing cached under it
  EXPECT_EQ(cache.GetStats().entries, 2u);
  // An erased key builds afresh, with the same order.
  EXPECT_EQ(cache.GetOrCreate(7, 100, 1, false)->order(), held->order());
  EXPECT_EQ(cache.GetStats().entries, 3u);
}

TEST(PermutationCacheTest, ZeroCapacityBuildsFreshOrders) {
  PermutationCache cache(0);
  auto a = cache.GetOrCreate(7, 64, 42, false);
  auto b = cache.GetOrCreate(7, 64, 42, false);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // No sharing, but determinism still holds.
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->order(), b->order());
}

}  // namespace
}  // namespace swope
