/**
 * @file
 * The LRU policy shared by the result cache and the graph-template
 * cache (util/lru_cache.h), tested once over both production
 * instantiations: LRU order, in-place refresh, the byte budget and
 * the never-evicted newest entry, clear(), and recheck()'s counting.
 * Keys are multiples of the shard count, so every key of a case lands
 * in one shard and exact LRU order is observable.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "graph/builder.h"
#include "graph/template.h"
#include "serve/result_cache.h"

namespace vtrain {
namespace {

/** Result-cache values, told apart by iteration time. */
SimulationResult
valueFor(const ResultCache *, int i)
{
    SimulationResult result;
    result.iteration_seconds = static_cast<double>(i);
    return result;
}

/** Template-cache values: one captured tiny template per index, each
 *  over a different micro-batch count (so sizes differ too). */
std::shared_ptr<const GraphTemplate>
valueFor(const GraphTemplateCache *, int i)
{
    static std::map<int, std::shared_ptr<const GraphTemplate>> made;
    std::shared_ptr<const GraphTemplate> &tmpl = made[i];
    if (!tmpl) {
        const ModelConfig model = makeModel(1024, 8, 16, 512, 8192);
        const ClusterSpec cluster = makeCluster(8);
        ParallelConfig plan;
        plan.tensor = 2;
        plan.pipeline = 2;
        plan.micro_batch_size = 1;
        plan.global_batch_size = 8;
        CommModel comm(cluster);
        GraphBuilder builder(model, plan, cluster, comm);
        BuildOptions options;
        options.n_micro_override = 1 + i;
        SyntheticProfiler profiler(cluster.node.gpu);
        OperatorToTaskTable table(profiler);
        tmpl = GraphTemplate::capture(builder.build(options), table, {},
                                      nullptr);
    }
    return tmpl;
}

template <typename CacheType>
class LruCachePolicy : public ::testing::Test
{
  protected:
    using Cache = CacheType;
    using Options = typename Cache::Options;

    /** The i-th key of shard 0. */
    static uint64_t key(uint64_t i) { return i * Cache::kShards; }

    static auto
    value(int i)
    {
        return valueFor(static_cast<const Cache *>(nullptr), i);
    }

    /** A budget of `per_shard` entries in every shard, bytes off. */
    static Options
    entryBudget(size_t per_shard)
    {
        Options options;
        options.max_entries = per_shard * Cache::kShards;
        options.max_bytes = 0;
        return options;
    }
};

using Caches = ::testing::Types<ResultCache, GraphTemplateCache>;
TYPED_TEST_SUITE(LruCachePolicy, Caches);

TYPED_TEST(LruCachePolicy, EvictsLeastRecentlyUsed)
{
    typename TestFixture::Cache cache(TestFixture::entryBudget(3));
    for (int i = 1; i <= 3; ++i)
        cache.put(this->key(i), this->value(i));
    // Touch key 1 so key 2 becomes the LRU entry.
    decltype(this->value(0)) out;
    ASSERT_TRUE(cache.get(this->key(1), &out));
    EXPECT_EQ(out, this->value(1));

    cache.put(this->key(4), this->value(4));
    EXPECT_FALSE(cache.get(this->key(2), nullptr));
    EXPECT_TRUE(cache.get(this->key(1), nullptr));
    EXPECT_TRUE(cache.get(this->key(3), nullptr));
    EXPECT_TRUE(cache.get(this->key(4), nullptr));

    const util::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.insertions, 4u);
    EXPECT_EQ(stats.updates, 0u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.bytes, cacheEntryBytes(this->value(1)) +
                               cacheEntryBytes(this->value(3)) +
                               cacheEntryBytes(this->value(4)));
}

TYPED_TEST(LruCachePolicy, PutRefreshesExistingKeyInPlace)
{
    typename TestFixture::Cache cache(TestFixture::entryBudget(2));
    cache.put(this->key(1), this->value(1));
    cache.put(this->key(2), this->value(2));
    cache.put(this->key(1), this->value(3)); // refresh, not insert
    decltype(this->value(0)) out;
    ASSERT_TRUE(cache.get(this->key(1), &out));
    EXPECT_EQ(out, this->value(3));

    const util::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.insertions, 2u);
    EXPECT_EQ(stats.updates, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    // The refreshed value's cost replaces the old one's.
    EXPECT_EQ(stats.bytes, cacheEntryBytes(this->value(2)) +
                               cacheEntryBytes(this->value(3)));

    // The refresh made key 1 most recent: a third key evicts key 2.
    cache.put(this->key(4), this->value(4));
    EXPECT_TRUE(cache.get(this->key(1), nullptr));
    EXPECT_FALSE(cache.get(this->key(2), nullptr));
}

TYPED_TEST(LruCachePolicy, ByteBudgetBoundsResidency)
{
    const auto v = this->value(0);
    const size_t bytes = cacheEntryBytes(v);
    ASSERT_GT(bytes, 0u);

    typename TestFixture::Options options;
    options.max_entries = 0; // entry budget off; bytes only
    options.max_bytes = 2 * bytes * TestFixture::Cache::kShards;
    typename TestFixture::Cache cache(options);
    for (uint64_t k = 0; k < 10; ++k)
        cache.put(this->key(k), v);
    const util::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 2 * bytes);
    EXPECT_EQ(stats.evictions, 8u);
    // The two most recent keys survive.
    EXPECT_TRUE(cache.get(this->key(9), nullptr));
    EXPECT_TRUE(cache.get(this->key(8), nullptr));

    // A single entry larger than its shard's whole budget still stays.
    options.max_bytes = 1;
    typename TestFixture::Cache tight(options);
    tight.put(this->key(7), v);
    tight.put(this->key(8), v);
    EXPECT_FALSE(tight.get(this->key(7), nullptr));
    EXPECT_TRUE(tight.get(this->key(8), nullptr));
    EXPECT_EQ(tight.stats().entries, 1u);
}

TYPED_TEST(LruCachePolicy, ClearDropsEntriesKeepsCounters)
{
    typename TestFixture::Cache cache;
    cache.put(this->key(1), this->value(1));
    ASSERT_TRUE(cache.get(this->key(1), nullptr));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.get(this->key(1), nullptr));
    const util::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TYPED_TEST(LruCachePolicy, RecheckCountsHitsButNotMisses)
{
    typename TestFixture::Cache cache(TestFixture::entryBudget(2));
    cache.put(this->key(1), this->value(1));
    cache.put(this->key(2), this->value(2));

    // A recheck hit counts and promotes like get().
    decltype(this->value(0)) out;
    ASSERT_TRUE(cache.recheck(this->key(1), &out));
    EXPECT_EQ(out, this->value(1));
    // A recheck miss is the caller's second look: not counted again.
    EXPECT_FALSE(cache.recheck(this->key(3), nullptr));
    util::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);

    cache.put(this->key(3), this->value(3)); // evicts key 2, not key 1
    EXPECT_TRUE(cache.get(this->key(1), nullptr));
    EXPECT_FALSE(cache.get(this->key(2), nullptr));
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
}

} // namespace
} // namespace vtrain
