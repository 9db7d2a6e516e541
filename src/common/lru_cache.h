#ifndef LAKEKIT_COMMON_LRU_CACHE_H_
#define LAKEKIT_COMMON_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lakekit {

/// Aggregate counters of an LruCache, summed over its shards.
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Bytes currently charged (includes pinned entries).
  size_t charge = 0;
  size_t entries = 0;
};

/// A sharded, memory-bounded LRU cache (DESIGN.md §9).
///
/// Entries are charged an explicit byte cost at insert time against ONE
/// global byte budget; each shard keeps its own LRU list. While the summed
/// charge is over budget, an insert (or a release) first evicts from its own
/// shard's least-recently-used end, then walks the other shards one at a
/// time and evicts their unpinned tail entries until the charge fits. The
/// walk runs only while the cache is over budget, so hits and inserts that
/// fit cost one atomic access on top of the shard lock. An entry as large as
/// the whole budget therefore stays cached whatever the shard count.
/// Recency is exact within a shard; across shards the victim order is
/// approximate (own shard first), the usual price of sharded LRU lists.
///
/// Lookups and inserts return a `Handle` that *pins* the entry: pinned
/// entries are skipped by eviction, so an in-flight reader can never have
/// the value destroyed underneath it. The byte budget is therefore a soft
/// cap while pins are outstanding — releasing a pin re-runs eviction, so
/// the cache re-converges to its budget as soon as readers drain (tested
/// under TSan in lru_cache_test.cc).
///
/// Concurrency: each shard has its own annotated Mutex; keys hash to shards
/// with a mixed hash, so unrelated keys contend on different locks. At most
/// one shard mutex is held at any moment (the cross-shard walk takes them
/// one after another), so there is no lock order to get wrong. The global
/// charge is an atomic. Values are immutable once inserted (handles only
/// expose `const V&`).
///
/// There is deliberately no Erase: lakekit keys its caches by
/// (name, generation), so stale entries become unreachable on the next
/// generation bump and age out through normal LRU pressure.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  /// `capacity_bytes` is the one budget shared by all shards: any single
  /// shard may use all of it. `shards` 0 picks a power of two near the
  /// hardware concurrency (capped at 16); the count only spreads lock
  /// contention and never changes what fits.
  explicit LruCache(size_t capacity_bytes, size_t shards = 0)
      : capacity_(capacity_bytes) {
    size_t want = shards;
    if (want == 0) {
      const size_t hw = std::thread::hardware_concurrency();
      want = 1;
      while (want < hw && want < 16) want <<= 1;
    }
    // Round up to a power of two so shard selection is a mask.
    size_t n = 1;
    while (n < want) n <<= 1;
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// A pinned reference to a cache entry. While any Handle to an entry is
  /// alive the entry cannot be evicted. Copying re-pins; destruction
  /// unpins (and triggers deferred eviction if the cache ran over budget
  /// while the entry was pinned).
  class Handle {
   public:
    Handle() = default;
    Handle(const Handle& other) { *this = other; }
    Handle& operator=(const Handle& other) {
      if (this == &other) return *this;
      Release();
      cache_ = other.cache_;
      shard_ = other.shard_;
      entry_ = other.entry_;
      if (entry_ != nullptr) {
        MutexLock lock(shard_->mu);
        ++entry_->pins;
      }
      return *this;
    }
    Handle(Handle&& other) noexcept
        : cache_(other.cache_), shard_(other.shard_), entry_(other.entry_) {
      other.cache_ = nullptr;
      other.shard_ = nullptr;
      other.entry_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this == &other) return *this;
      Release();
      cache_ = other.cache_;
      shard_ = other.shard_;
      entry_ = other.entry_;
      other.cache_ = nullptr;
      other.shard_ = nullptr;
      other.entry_ = nullptr;
      return *this;
    }
    ~Handle() { Release(); }

    explicit operator bool() const { return entry_ != nullptr; }
    const V& operator*() const { return entry_->value; }
    const V* operator->() const { return &entry_->value; }
    const V* get() const { return entry_ == nullptr ? nullptr : &entry_->value; }

    void Release() {
      if (entry_ == nullptr) return;
      LruCache* cache = cache_;
      Entry* entry = entry_;
      Shard* shard = shard_;
      cache_ = nullptr;
      entry_ = nullptr;
      shard_ = nullptr;
      {
        MutexLock lock(shard->mu);
        --entry->pins;
        // The entry may have kept the cache over budget while pinned; now
        // that it is (possibly) evictable again, re-converge.
        shard->EvictLocked(cache->charge_, cache->capacity_);
      }
      cache->EvictOtherShards(shard);
    }

   private:
    friend class LruCache;
    Handle(LruCache* cache, typename LruCache::Shard* shard,
           typename LruCache::Entry* entry)
        : cache_(cache), shard_(shard), entry_(entry) {}

    LruCache* cache_ = nullptr;
    typename LruCache::Shard* shard_ = nullptr;
    typename LruCache::Entry* entry_ = nullptr;
  };

  /// Returns a pinned handle to `key`'s entry, or an empty handle on miss.
  /// A hit moves the entry to the most-recently-used position.
  Handle Lookup(const K& key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return Handle();
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    Entry& entry = *it->second;
    ++entry.pins;
    return Handle(this, &shard, &entry);
  }

  /// Inserts `value` under `key` charged `charge` bytes and returns a pinned
  /// handle to it. If the key is already present the existing entry wins and
  /// `value` is discarded — concurrent loaders racing to fill the same key
  /// converge on one copy instead of replacing each other. `inserted` (when
  /// non-null) reports which case happened, so byte-accounting callers know
  /// whether their charge was taken or must be credited back.
  Handle Insert(const K& key, V value, size_t charge,
                bool* inserted = nullptr) {
    Shard& shard = ShardFor(key);
    Handle handle;
    {
      MutexLock lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        if (inserted != nullptr) *inserted = false;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        Entry& existing = *it->second;
        ++existing.pins;
        return Handle(this, &shard, &existing);
      }
      if (inserted != nullptr) *inserted = true;
      shard.lru.push_front(Entry{key, std::move(value), charge, 1});
      shard.index.emplace(key, shard.lru.begin());
      charge_.fetch_add(charge);
      shard.EvictLocked(charge_, capacity_);
      handle = Handle(this, &shard, &shard.lru.front());
    }
    EvictOtherShards(&shard);
    return handle;
  }

  /// Installs a callback invoked (under the owning shard's lock — keep it
  /// cheap and reentrancy-free) with the charge of every evicted entry.
  /// Byte-accounting callers (query/table_cache.h) credit their budget
  /// here. Set once, before the cache sees concurrent traffic.
  void set_eviction_listener(std::function<void(size_t)> listener) {
    for (std::unique_ptr<Shard>& shard : shards_) {
      MutexLock lock(shard->mu);
      shard->on_evict = listener;
    }
  }

  LruCacheStats stats() const {
    LruCacheStats out;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      MutexLock lock(shard->mu);
      out.hits += shard->hits;
      out.misses += shard->misses;
      out.evictions += shard->evictions;
      out.entries += shard->index.size();
    }
    out.charge = charge();
    return out;
  }

  /// Bytes currently charged across all shards.
  size_t charge() const { return charge_.load(); }

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    K key;
    V value;
    size_t charge = 0;
    /// Outstanding handles. Guarded by the owning shard's mutex (the entry
    /// lives inside the shard's list, so the field inherits that guard).
    uint32_t pins = 0;
  };

  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru LAKEKIT_GUARDED_BY(mu);  // front = most recent
    std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index
        LAKEKIT_GUARDED_BY(mu);
    uint64_t hits LAKEKIT_GUARDED_BY(mu) = 0;
    uint64_t misses LAKEKIT_GUARDED_BY(mu) = 0;
    uint64_t evictions LAKEKIT_GUARDED_BY(mu) = 0;
    std::function<void(size_t)> on_evict LAKEKIT_GUARDED_BY(mu);

    /// Evicts unpinned entries from this shard's LRU end while the cache's
    /// global `charge` exceeds `capacity` (or until only pinned entries
    /// remain here).
    void EvictLocked(std::atomic<size_t>& charge, size_t capacity)
        LAKEKIT_REQUIRES(mu) {
      auto it = lru.end();
      while (charge.load() > capacity && it != lru.begin()) {
        --it;
        if (it->pins > 0) continue;  // pinned: skip, try the next-older entry
        charge.fetch_sub(it->charge);
        ++evictions;
        if (on_evict) on_evict(it->charge);
        index.erase(it->key);
        it = lru.erase(it);
      }
    }
  };

  /// Called with no shard lock held, after `home` has evicted what it could
  /// and the cache may still be over budget: locks the other shards one at
  /// a time, starting after `home` so no shard is always drained first, and
  /// evicts their unpinned tail entries until the global charge fits. A
  /// no-op (one atomic load) when the cache is within budget.
  void EvictOtherShards(const Shard* home) {
    if (charge_.load() <= capacity_) return;
    const size_t n = shards_.size();
    size_t start = 0;
    while (shards_[start].get() != home) ++start;
    for (size_t i = 1; i < n && charge_.load() > capacity_; ++i) {
      Shard& shard = *shards_[(start + i) & (n - 1)];
      MutexLock lock(shard.mu);
      shard.EvictLocked(charge_, capacity_);
    }
  }

  Shard& ShardFor(const K& key) {
    // Mix the hash so clustered low bits (e.g. sequential generations in a
    // composed key) still spread across shards.
    const size_t h = static_cast<size_t>(Mix64(Hash{}(key)));
    return *shards_[h & (shards_.size() - 1)];
  }

  const size_t capacity_;
  /// Bytes charged across all shards, pinned entries included. Default
  /// (sequentially consistent) ordering: on x86 the loads cost the same as
  /// relaxed ones, and the hit path never writes it.
  std::atomic<size_t> charge_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lakekit

#endif  // LAKEKIT_COMMON_LRU_CACHE_H_
