/**
 * @file
 * The serve layer's result cache: SimulationResults memoized by request
 * fingerprint, so repeated queries (identical DSE points across sweeps,
 * duplicate user requests under heavy traffic) cost a hash lookup
 * instead of a full re-simulation.  The policy is util::LruCache's;
 * this cache fixes 16 shards and its default budgets.
 */
#ifndef VTRAIN_SERVE_RESULT_CACHE_H
#define VTRAIN_SERVE_RESULT_CACHE_H

#include <cstddef>

#include "sim/result.h"
#include "util/lru_cache.h"

namespace vtrain {

/** 16 shards; 65,536 entries and 64 MiB by default. */
class ResultCache
    : public util::LruCache<SimulationResult, 16, 1 << 16, 64ull << 20>
{
  public:
    using LruCache::LruCache;

    /** Estimated resident bytes per entry (value + index overhead). */
    static constexpr size_t kBytesPerEntry = sizeof(SimulationResult) + 96;
};

/** Byte cost of a cached result: the same for every entry. */
inline size_t
cacheEntryBytes(const SimulationResult &)
{
    return ResultCache::kBytesPerEntry;
}

} // namespace vtrain

#endif // VTRAIN_SERVE_RESULT_CACHE_H
