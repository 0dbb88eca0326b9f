#include "serve/result_cache.h"

#include <bit>

namespace vtrain {

namespace {

/** @return n rounded up to a power of two, at least 1. */
size_t
roundUpPow2(size_t n)
{
    return n <= 1 ? 1 : std::bit_ceil(n);
}

/** @return total/shards rounded up, or 0 when total is unlimited. */
size_t
perShardBudget(size_t total, size_t shards)
{
    return total == 0 ? 0 : (total + shards - 1) / shards;
}

} // namespace

ResultCache::ResultCache(Options options)
    : options_(options), shards_(roundUpPow2(options.num_shards))
{
    max_entries_per_shard_ =
        perShardBudget(options_.max_entries, shards_.size());
    max_bytes_per_shard_ =
        perShardBudget(options_.max_bytes, shards_.size());
}

bool
ResultCache::get(uint64_t key, SimulationResult *out)
{
    return lookup(key, out, /*count_miss=*/true);
}

bool
ResultCache::recheck(uint64_t key, SimulationResult *out)
{
    return lookup(key, out, /*count_miss=*/false);
}

bool
ResultCache::lookup(uint64_t key, SimulationResult *out, bool count_miss)
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

void
ResultCache::put(uint64_t key, const SimulationResult &value)
{
    Shard &shard = shardFor(key);
    util::MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        it->second->value = value;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        ++shard.updates;
        return;
    }
    shard.lru.push_front(Entry{key, value});
    shard.index[key] = shard.lru.begin();
    ++shard.insertions;
    enforceBudgetLocked(shard);
}

void
ResultCache::enforceBudgetLocked(Shard &shard)
{
    // No lambda here: the analysis checks lambda bodies as separate
    // functions with an empty lock set, so the budget predicate reads
    // the guarded fields inline instead.
    while (!shard.lru.empty()) {
        const size_t n = shard.lru.size();
        const bool over_entries =
            max_entries_per_shard_ != 0 && n > max_entries_per_shard_;
        const bool over_bytes =
            max_bytes_per_shard_ != 0 &&
            n * kBytesPerEntry > max_bytes_per_shard_;
        if (!over_entries && !over_bytes)
            break;
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++shard.evictions;
    }
}

void
ResultCache::clear()
{
    for (Shard &shard : shards_) {
        util::MutexLock lock(shard.mutex);
        shard.lru.clear();
        shard.index.clear();
    }
}

CacheStats
ResultCache::stats() const
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
    }
    total.bytes = total.entries * kBytesPerEntry;
    return total;
}

size_t
ResultCache::size() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        util::MutexLock lock(shard.mutex);
        n += shard.lru.size();
    }
    return n;
}

} // namespace vtrain
