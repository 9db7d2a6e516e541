// Tests for the sharded, memory-bounded LRU cache (common/lru_cache.h):
// recency order, charge-based eviction, pinning, insert-if-absent
// convergence, and budget re-convergence under concurrent pin churn. The
// shard-sweep tests run at explicit shard counts so the host's core count
// never decides which path is covered.

#include "common/lru_cache.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lakekit {
namespace {

using Cache = LruCache<std::string, int>;

TEST(LruCacheTest, LookupMissThenHit) {
  Cache cache(1024, /*shards=*/1);
  EXPECT_FALSE(cache.Lookup("a"));
  {
    Cache::Handle h = cache.Insert("a", 7, 10);
    ASSERT_TRUE(h);
    EXPECT_EQ(*h, 7);
  }
  Cache::Handle h = cache.Lookup("a");
  ASSERT_TRUE(h);
  EXPECT_EQ(*h, 7);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.charge, 10u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedWhenOverBudget) {
  // Budget fits two 10-byte entries; one shard so the budget is undivided.
  Cache cache(20, /*shards=*/1);
  cache.Insert("a", 1, 10);
  cache.Insert("b", 2, 10);
  // Touch "a" so "b" becomes the eviction candidate.
  EXPECT_TRUE(cache.Lookup("a"));
  cache.Insert("c", 3, 10);
  EXPECT_TRUE(cache.Lookup("a"));
  EXPECT_FALSE(cache.Lookup("b"));
  EXPECT_TRUE(cache.Lookup("c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.charge(), 20u);
}

TEST(LruCacheTest, PinnedEntrySurvivesEvictionPressure) {
  Cache cache(10, /*shards=*/1);
  Cache::Handle pinned = cache.Insert("a", 1, 10);
  // "b" pushes the shard over budget; "a" is pinned, so it must survive
  // even though it is the LRU entry. The budget is a soft cap until the
  // pin drops.
  Cache::Handle b = cache.Insert("b", 2, 10);
  b.Release();
  EXPECT_TRUE(cache.Lookup("a"));
  ASSERT_TRUE(pinned);
  EXPECT_EQ(*pinned, 1);
  // Releasing the pin re-runs eviction and the cache re-converges.
  pinned.Release();
  // One more touch-free insert to force the walk.
  cache.Insert("c", 3, 10).Release();
  EXPECT_LE(cache.charge(), 10u);
}

TEST(LruCacheTest, InsertIfAbsentConvergesOnFirstValue) {
  Cache cache(1024, /*shards=*/1);
  Cache::Handle first = cache.Insert("k", 1, 10);
  // A racing loader's insert under the same key must not replace the value
  // the first handle still reads.
  Cache::Handle second = cache.Insert("k", 2, 10);
  EXPECT_EQ(*first, 1);
  EXPECT_EQ(*second, 1);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().charge, 10u);
}

TEST(LruCacheTest, HandleCopyRepinsAndMoveTransfers) {
  Cache cache(10, /*shards=*/1);
  Cache::Handle a = cache.Insert("a", 1, 10);
  Cache::Handle copy = a;
  a.Release();
  // The copy still pins: eviction pressure must not destroy the entry.
  cache.Insert("b", 2, 10).Release();
  EXPECT_EQ(*copy, 1);
  Cache::Handle moved = std::move(copy);
  EXPECT_FALSE(copy);  // NOLINT(bugprone-use-after-move): post-move empty
  EXPECT_EQ(*moved, 1);
}

TEST(LruCacheTest, ShardCountIsPowerOfTwo) {
  Cache cache(1024, /*shards=*/5);
  EXPECT_EQ(cache.num_shards(), 8u);
  Cache def(1024);
  EXPECT_EQ(def.num_shards() & (def.num_shards() - 1), 0u);
}

// Concurrent hammer: hits, misses, inserts, pin/release churn across
// threads. Run under TSan in CI. After the threads quiesce (all pins
// dropped), the cache must hold its byte budget again.
TEST(LruCacheTest, ConcurrentChurnHoldsBudgetAfterQuiesce) {
  constexpr size_t kBudget = 64;
  constexpr size_t kCharge = 8;
  Cache cache(kBudget, /*shards=*/4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<uint64_t> live_value_errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key_num = (t * 7 + i) % 32;
        const std::string key = "k" + std::to_string(key_num);
        Cache::Handle h = cache.Lookup(key);
        if (!h) h = cache.Insert(key, key_num, kCharge);
        // The pinned value must always be the one inserted for this key:
        // eviction-under-pin or replace-under-pin would break this.
        if (*h != key_num) live_value_errors.fetch_add(1);
        if (i % 3 == 0) {
          Cache::Handle copy = h;  // re-pin path
          if (*copy != key_num) live_value_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(live_value_errors.load(), 0u);
  const LruCacheStats stats = cache.stats();
  // All pins are dropped: the budget is a hard cap again.
  EXPECT_LE(stats.charge, kBudget);
  // Every op did exactly one Lookup (Insert does not count hits/misses).
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GT(stats.evictions, 0u);
}

// Shard counts every budget test runs at: one list, the 4-core default,
// and the 16-shard cap of the hardware-derived default.
constexpr size_t kShardCounts[] = {1, 4, 16};

// The budget is one number shared by all shards: an entry charged the whole
// capacity must still be resident after its last pin drops, evicting what
// other shards held to make room.
TEST(LruCacheShardSweepTest, EntryChargedFullCapacitySurvivesRelease) {
  constexpr size_t kBudget = 1000;
  for (const size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Cache cache(kBudget, shards);
    ASSERT_EQ(cache.num_shards(), shards);
    for (int i = 0; i < 20; ++i) {
      cache.Insert("small" + std::to_string(i), i, 10).Release();
    }
    EXPECT_EQ(cache.charge(), 200u);
    cache.Insert("big", 42, kBudget).Release();
    Cache::Handle h = cache.Lookup("big");
    ASSERT_TRUE(h);
    EXPECT_EQ(*h, 42);
    EXPECT_EQ(cache.charge(), kBudget);
    const LruCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 20u);
  }
}

// Entries that fit together are all kept at every shard count: nothing is
// evicted while the summed charge is within budget, however the keys hash.
TEST(LruCacheShardSweepTest, NoEvictionWhileWithinBudget) {
  for (const size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Cache cache(100, shards);
    for (int i = 0; i < 4; ++i) {
      cache.Insert("k" + std::to_string(i), i, 25).Release();
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(cache.Lookup("k" + std::to_string(i))) << "k" << i;
    }
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.charge(), 100u);
  }
}

// Pins make the budget soft; once every pin is dropped the summed charge is
// back within capacity, including when the overshoot sits in shards other
// than the one whose release triggers the eviction.
TEST(LruCacheShardSweepTest, ChargeFitsBudgetOnceAllPinsDrop) {
  constexpr size_t kBudget = 100;
  for (const size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Cache cache(kBudget, shards);
    std::vector<Cache::Handle> pins;
    for (int i = 0; i < 40; ++i) {
      pins.push_back(cache.Insert("k" + std::to_string(i), i, 7 + i % 5));
    }
    // Everything is pinned, so nothing could be evicted yet.
    EXPECT_GT(cache.charge(), kBudget);
    EXPECT_EQ(cache.stats().entries, 40u);
    for (Cache::Handle& h : pins) h.Release();
    const LruCacheStats stats = cache.stats();
    EXPECT_LE(stats.charge, kBudget);
    EXPECT_GT(stats.entries, 0u);
  }
}

// Concurrent churn with charges large enough that one shard's slice of the
// budget could not hold them: after quiesce the global charge is within
// budget at every shard count.
TEST(LruCacheShardSweepTest, ConcurrentChurnHoldsGlobalBudget) {
  constexpr size_t kBudget = 256;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  for (const size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Cache cache(kBudget, shards);
    std::atomic<uint64_t> live_value_errors{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          const int key_num = (t * 11 + i) % 48;
          const std::string key = "k" + std::to_string(key_num);
          Cache::Handle h = cache.Lookup(key);
          if (!h) h = cache.Insert(key, key_num, 20 + key_num % 4 * 10);
          if (*h != key_num) live_value_errors.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(live_value_errors.load(), 0u);
    const LruCacheStats stats = cache.stats();
    EXPECT_LE(stats.charge, kBudget);
    EXPECT_GT(stats.entries, 0u);
    EXPECT_GT(stats.evictions, 0u);
  }
}

}  // namespace
}  // namespace lakekit
