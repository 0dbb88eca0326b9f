/**
 * @file
 * Thread-safe LRU cache keyed by 64-bit fingerprint: the one policy
 * behind the serve layer's result cache (serve/result_cache.h) and the
 * graph-template cache (graph/template.h).
 *
 * The key space is striped over kShards independently locked shards;
 * a key's low bits pick its shard (fingerprints are splitmix-finalized,
 * so those bits are uniform), and concurrent callers contend only when
 * their keys share one.  Each shard keeps exact LRU order in a list
 * plus an index map and enforces its slice of the entry and byte
 * budgets (0 = unlimited).  The entry a put() just touched is never
 * evicted, so one value larger than its shard's whole byte budget
 * still serves.
 *
 * What differs between caches is fixed where each is declared: the
 * value type, the shard count, the default budgets, and the byte cost
 * of a value, an overload `size_t cacheEntryBytes(const V &)` in V's
 * namespace (found by argument-dependent lookup).
 */
#ifndef VTRAIN_UTIL_LRU_CACHE_H
#define VTRAIN_UTIL_LRU_CACHE_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {
namespace util {

/** Aggregate cache counters (summed over all shards). */
struct CacheStats {
    uint64_t hits = 0;       //!< get() found the key
    uint64_t misses = 0;     //!< get() did not find the key
    uint64_t insertions = 0; //!< put() stored a new entry
    uint64_t updates = 0;    //!< put() refreshed an existing entry
    uint64_t evictions = 0;  //!< entries dropped to respect budgets
    size_t entries = 0;      //!< currently resident entries
    size_t bytes = 0;        //!< estimated resident bytes

    /** @return hits / (hits + misses), or 0 when never queried. */
    double hitRate() const
    {
        const uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Mutex-striped LRU map: fingerprint -> V. */
template <typename V, size_t kShardCount, size_t kDefaultEntries,
          size_t kDefaultBytes>
class LruCache
{
  public:
    static constexpr size_t kShards = kShardCount;
    static_assert(std::has_single_bit(kShards),
                  "the shard count must be a power of two");

    struct Options {
        /** Total entry budget across all shards (0 = unlimited). */
        size_t max_entries = kDefaultEntries;

        /** Total byte budget across all shards (0 = unlimited). */
        size_t max_bytes = kDefaultBytes;
    };

    LruCache() : LruCache(Options{}) {}
    explicit LruCache(Options options)
        : max_entries_per_shard_(perShard(options.max_entries)),
          max_bytes_per_shard_(perShard(options.max_bytes))
    {
    }

    LruCache(const LruCache &) = delete;
    LruCache &operator=(const LruCache &) = delete;

    /**
     * Looks up `key`; on a hit copies the value into *out (if non-null)
     * and promotes the entry to most-recently-used.
     */
    bool get(uint64_t key, V *out)
    {
        return lookup(key, out, /*count_miss=*/true);
    }

    /**
     * get() for a caller re-checking a key whose miss it already
     * counted: a hit counts as usual, a miss is not counted again.
     */
    bool recheck(uint64_t key, V *out)
    {
        return lookup(key, out, /*count_miss=*/false);
    }

    /** Inserts or refreshes `key`, evicting LRU entries over budget. */
    void put(uint64_t key, V value)
    {
        const size_t bytes = cacheEntryBytes(value);
        Shard &shard = shardFor(key);
        util::MutexLock lock(shard.mutex);
        auto it = shard.index.find(key);
        if (it != shard.index.end()) {
            shard.bytes -= cacheEntryBytes(it->second->value);
            it->second->value = std::move(value);
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            ++shard.updates;
        } else {
            shard.lru.push_front(Entry{key, std::move(value)});
            shard.index.emplace(key, shard.lru.begin());
            ++shard.insertions;
        }
        shard.bytes += bytes;
        // No lambda here: the analysis checks lambda bodies as separate
        // functions with an empty lock set, so the budget predicate
        // reads the guarded fields inline instead.
        while (shard.lru.size() > 1 &&
               ((max_entries_per_shard_ != 0 &&
                 shard.lru.size() > max_entries_per_shard_) ||
                (max_bytes_per_shard_ != 0 &&
                 shard.bytes > max_bytes_per_shard_))) {
            const Entry &victim = shard.lru.back();
            shard.bytes -= cacheEntryBytes(victim.value);
            shard.index.erase(victim.key);
            shard.lru.pop_back();
            ++shard.evictions;
        }
    }

    /** Drops every entry (counters are kept). */
    void clear()
    {
        for (Shard &shard : shards_) {
            util::MutexLock lock(shard.mutex);
            shard.lru.clear();
            shard.index.clear();
            shard.bytes = 0;
        }
    }

    /** @return summed counters and occupancy across shards. */
    CacheStats stats() const
    {
        CacheStats total;
        for (const Shard &shard : shards_) {
            util::MutexLock lock(shard.mutex);
            total.hits += shard.hits;
            total.misses += shard.misses;
            total.insertions += shard.insertions;
            total.updates += shard.updates;
            total.evictions += shard.evictions;
            total.entries += shard.lru.size();
            total.bytes += shard.bytes;
        }
        return total;
    }

    /** @return current number of resident entries. */
    size_t size() const { return stats().entries; }

  private:
    struct Entry {
        uint64_t key;
        V value;
    };

    /** One lock's worth of the key space, with its own LRU order. */
    struct Shard {
        mutable util::Mutex mutex;
        /** front = most recently used */
        std::list<Entry> lru GUARDED_BY(mutex);
        std::unordered_map<uint64_t, typename std::list<Entry>::iterator>
            index GUARDED_BY(mutex);
        size_t bytes GUARDED_BY(mutex) = 0;
        uint64_t hits GUARDED_BY(mutex) = 0;
        uint64_t misses GUARDED_BY(mutex) = 0;
        uint64_t insertions GUARDED_BY(mutex) = 0;
        uint64_t updates GUARDED_BY(mutex) = 0;
        uint64_t evictions GUARDED_BY(mutex) = 0;
    };

    /** @return total/kShards rounded up, or 0 when total is unlimited. */
    static size_t perShard(size_t total)
    {
        return total == 0 ? 0 : (total + kShards - 1) / kShards;
    }

    Shard &shardFor(uint64_t key) { return shards_[key & (kShards - 1)]; }

    /** get() and recheck(): they differ only in counting a miss. */
    bool lookup(uint64_t key, V *out, bool count_miss)
    {
        Shard &shard = shardFor(key);
        util::MutexLock lock(shard.mutex);
        auto it = shard.index.find(key);
        if (it == shard.index.end()) {
            if (count_miss)
                ++shard.misses;
            return false;
        }
        ++shard.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        if (out)
            *out = it->second->value;
        return true;
    }

    size_t max_entries_per_shard_; // 0 = unlimited
    size_t max_bytes_per_shard_;   // 0 = unlimited
    std::array<Shard, kShards> shards_;
};

} // namespace util
} // namespace vtrain

#endif // VTRAIN_UTIL_LRU_CACHE_H
