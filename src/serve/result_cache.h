/**
 * @file
 * Sharded, thread-safe LRU cache of simulation results.
 *
 * The serve layer memoizes SimulationResults by request fingerprint so
 * repeated queries (identical DSE points across sweeps, duplicate user
 * requests under heavy traffic) cost a hash lookup instead of a full
 * re-simulation.  The key space is striped across N independently
 * locked shards — concurrent readers/writers only contend when their
 * fingerprints land on the same shard — and each shard enforces its
 * slice of the global entry and byte budgets with exact LRU eviction.
 */
#ifndef VTRAIN_SERVE_RESULT_CACHE_H
#define VTRAIN_SERVE_RESULT_CACHE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "sim/result.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {

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

/** Mutex-striped LRU map: fingerprint -> SimulationResult. */
class ResultCache
{
  public:
    struct Options {
        /** Total entry budget across all shards (0 = unlimited). */
        size_t max_entries = 1 << 16;

        /** Total byte budget across all shards (0 = unlimited). */
        size_t max_bytes = 64ull << 20;

        /** Shard count; rounded up to a power of two, min 1. */
        size_t num_shards = 16;
    };

    ResultCache() : ResultCache(Options{}) {}
    explicit ResultCache(Options options);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Looks up `key`; on a hit copies the value into *out (if non-null)
     * and promotes the entry to most-recently-used.
     */
    bool get(uint64_t key, SimulationResult *out);

    /**
     * get() for a caller re-checking a key whose miss it already
     * counted: a hit counts as usual, a miss is not counted again.
     */
    bool recheck(uint64_t key, SimulationResult *out);

    /** Inserts or refreshes `key`, evicting LRU entries over budget. */
    void put(uint64_t key, const SimulationResult &value);

    /** Drops every entry (counters are kept). */
    void clear();

    /** @return summed counters and occupancy across shards. */
    CacheStats stats() const;

    /** @return current number of resident entries. */
    size_t size() const;

    size_t numShards() const { return shards_.size(); }

    /** Estimated resident bytes per entry (value + index overhead). */
    static constexpr size_t kBytesPerEntry =
        sizeof(SimulationResult) + 96;

  private:
    struct Entry {
        uint64_t key;
        SimulationResult value;
    };

    /** One lock's worth of the key space, with its own LRU order. */
    struct Shard {
        mutable util::Mutex mutex;
        /** front = most recently used */
        std::list<Entry> lru GUARDED_BY(mutex);
        std::unordered_map<uint64_t, std::list<Entry>::iterator>
            index GUARDED_BY(mutex);
        uint64_t hits GUARDED_BY(mutex) = 0;
        uint64_t misses GUARDED_BY(mutex) = 0;
        uint64_t insertions GUARDED_BY(mutex) = 0;
        uint64_t updates GUARDED_BY(mutex) = 0;
        uint64_t evictions GUARDED_BY(mutex) = 0;
    };

    Shard &shardFor(uint64_t key)
    {
        // Fingerprints are splitmix-finalized, so the low bits are
        // already uniformly distributed.
        return shards_[key & (shards_.size() - 1)];
    }

    /** get() and recheck(): they differ only in counting a miss. */
    bool lookup(uint64_t key, SimulationResult *out, bool count_miss);

    /** Evicts from the back of `shard` until it fits its budgets. */
    void enforceBudgetLocked(Shard &shard) REQUIRES(shard.mutex);

    Options options_;
    size_t max_entries_per_shard_ = 0; // 0 = unlimited
    size_t max_bytes_per_shard_ = 0;   // 0 = unlimited
    std::vector<Shard> shards_;
};

} // namespace vtrain

#endif // VTRAIN_SERVE_RESULT_CACHE_H
