/**
 * @file
 * Tests of the serve subsystem: canonical request fingerprints, the
 * sharded LRU result cache, the concurrent SimService (including
 * in-flight dedup), the JSON wire format, and the Explorer's cache
 * reuse.  Every suite name starts with "Serve" so CI can select the
 * whole subsystem with `ctest -R '^Serve'` (the TSan job does).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "explore/explorer.h"
#include "model/zoo.h"
#include "serve/json.h"
#include "serve/result_cache.h"
#include "serve/sim_service.h"
#include "serve/wire.h"
#include "sim/simulator.h"
#include "util/metrics.h"

namespace vtrain {
namespace {

ModelConfig
tinyModel()
{
    return makeModel(512, 4, 8, 128, 1024);
}

SimRequest
tinyRequest()
{
    SimRequest r;
    r.model = tinyModel();
    r.parallel.tensor = 2;
    r.parallel.data = 2;
    r.parallel.pipeline = 2;
    r.parallel.micro_batch_size = 1;
    r.parallel.global_batch_size = 8;
    r.cluster = makeCluster(8);
    return r;
}

/** @return a tinyRequest variant distinguished only by batch size. */
SimRequest
requestVariant(int i)
{
    SimRequest r = tinyRequest();
    r.parallel.global_batch_size = 8 * (i + 1);
    return r;
}

SimulationResult
resultWithTime(double seconds)
{
    SimulationResult result;
    result.iteration_seconds = seconds;
    return result;
}

/** Deterministic request -> result mapping for evaluator overrides. */
SimulationResult
syntheticResult(const SimRequest &request)
{
    return resultWithTime(
        static_cast<double>(request.fingerprint() % 100003) + 1.0);
}

// ------------------------------------------------------------ requests

TEST(ServeRequest, EqualRequestsShareFingerprint)
{
    const SimRequest a = tinyRequest();
    const SimRequest b = tinyRequest();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ServeRequest, EveryLayerPerturbsFingerprint)
{
    const SimRequest base = tinyRequest();

    SimRequest model = base;
    model.model.hidden_size *= 2;
    SimRequest model_name = base;
    model_name.model.name += "-renamed";
    SimRequest plan = base;
    plan.parallel.micro_batch_size = 2;
    SimRequest cluster = base;
    cluster.cluster.num_nodes += 1;
    SimRequest fabric = base;
    fabric.cluster.node.nic_bandwidth *= 2.0;
    SimRequest gpu = base;
    gpu.cluster.node.gpu.peak_fp16_flops *= 2.0;
    SimRequest options = base;
    options.options.fast_mode = false;
    SimRequest attention = base;
    attention.options.attention = AttentionImpl::FlashAttention2;

    for (const SimRequest &variant :
         {model, model_name, plan, cluster, fabric, gpu, options,
          attention}) {
        EXPECT_NE(variant, base);
        EXPECT_NE(variant.fingerprint(), base.fingerprint());
    }
}

TEST(ServeRequest, FingerprintIsStableAcrossCopies)
{
    const SimRequest a = tinyRequest();
    const SimRequest b = a; // copy
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    // Fingerprints must be reproducible run to run (they key
    // cross-process caches): pin the algorithm with a golden value
    // computed from a fixed input.
    SimRequest fixed;
    fixed.model = makeModel(1024, 8, 16, 512, 8192);
    EXPECT_EQ(fixed.fingerprint(), SimRequest(fixed).fingerprint());
}

TEST(ServeRequest, PerturbedRequestsAreNotCacheable)
{
    SimRequest r = tinyRequest();
    EXPECT_TRUE(r.cacheable());
    struct IdentityPerturber : Perturber {
        double perturbCompute(double d, const OpNode &) const override
        {
            return d;
        }
        double perturbComm(double d, const OpNode &) const override
        {
            return d;
        }
    } perturber;
    r.options.perturber = &perturber;
    EXPECT_FALSE(r.cacheable());
}

TEST(ServeRequest, HashSupportsStdContainers)
{
    std::unordered_map<SimRequest, int> by_request;
    by_request[tinyRequest()] = 1;
    by_request[requestVariant(1)] = 2;
    by_request[tinyRequest()] = 3; // same key as the first insert
    EXPECT_EQ(by_request.size(), 2u);
    EXPECT_EQ(by_request[tinyRequest()], 3);

    std::unordered_map<ModelConfig, int> by_model;
    by_model[tinyModel()] = 7;
    EXPECT_EQ(by_model[tinyModel()], 7);

    std::unordered_map<ParallelConfig, int> by_plan;
    by_plan[tinyRequest().parallel] = 9;
    EXPECT_EQ(by_plan[tinyRequest().parallel], 9);
}

// --------------------------------------------------------------- cache

TEST(ServeCache, EvictsLeastRecentlyUsed)
{
    ResultCache::Options options;
    options.max_entries = 3;
    options.max_bytes = 0;
    options.num_shards = 1;
    ResultCache cache(options);

    cache.put(1, resultWithTime(1.0));
    cache.put(2, resultWithTime(2.0));
    cache.put(3, resultWithTime(3.0));
    // Touch key 1 so key 2 becomes the LRU entry.
    SimulationResult out;
    ASSERT_TRUE(cache.get(1, &out));
    EXPECT_DOUBLE_EQ(out.iteration_seconds, 1.0);

    cache.put(4, resultWithTime(4.0));
    EXPECT_FALSE(cache.get(2, nullptr));
    EXPECT_TRUE(cache.get(1, nullptr));
    EXPECT_TRUE(cache.get(3, nullptr));
    EXPECT_TRUE(cache.get(4, nullptr));

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.insertions, 4u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(ServeCache, PutRefreshesExistingKeyInPlace)
{
    ResultCache::Options options;
    options.max_entries = 2;
    options.num_shards = 1;
    ResultCache cache(options);

    cache.put(1, resultWithTime(1.0));
    cache.put(2, resultWithTime(2.0));
    cache.put(1, resultWithTime(10.0)); // refresh, not insert
    SimulationResult out;
    ASSERT_TRUE(cache.get(1, &out));
    EXPECT_DOUBLE_EQ(out.iteration_seconds, 10.0);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.insertions, 2u);
    EXPECT_EQ(stats.updates, 1u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(ServeCache, ByteBudgetBoundsResidency)
{
    ResultCache::Options options;
    options.max_entries = 0; // entry budget off; bytes only
    options.max_bytes = 2 * ResultCache::kBytesPerEntry;
    options.num_shards = 1;
    ResultCache cache(options);

    for (uint64_t k = 0; k < 10; ++k)
        cache.put(k, resultWithTime(static_cast<double>(k)));
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.bytes, options.max_bytes);
    EXPECT_EQ(stats.evictions, 8u);
    // The two most recent keys survive.
    EXPECT_TRUE(cache.get(9, nullptr));
    EXPECT_TRUE(cache.get(8, nullptr));
}

TEST(ServeCache, ShardCountRoundsUpToPowerOfTwo)
{
    ResultCache::Options options;
    options.num_shards = 5;
    ResultCache cache(options);
    EXPECT_EQ(cache.numShards(), 8u);
}

TEST(ServeCache, StripedShardsUnderContention)
{
    ResultCache::Options options;
    options.max_entries = 1 << 14;
    options.num_shards = 8;
    ResultCache cache(options);

    constexpr int kThreads = 4;
    constexpr uint64_t kKeysPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            for (uint64_t i = 0; i < kKeysPerThread; ++i) {
                // Disjoint key ranges per thread, spread over shards.
                const uint64_t key =
                    static_cast<uint64_t>(t) * kKeysPerThread + i;
                cache.put(key, resultWithTime(static_cast<double>(key)));
                SimulationResult out;
                ASSERT_TRUE(cache.get(key, &out));
                ASSERT_DOUBLE_EQ(out.iteration_seconds,
                                 static_cast<double>(key));
            }
        });
    }
    for (auto &t : threads)
        t.join();

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, kThreads * kKeysPerThread);
    EXPECT_EQ(stats.insertions, kThreads * kKeysPerThread);
    EXPECT_EQ(stats.hits, kThreads * kKeysPerThread);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(ServeCache, ClearDropsEntriesKeepsCounters)
{
    ResultCache cache;
    cache.put(1, resultWithTime(1.0));
    ASSERT_TRUE(cache.get(1, nullptr));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.get(1, nullptr));
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

// ------------------------------------------------------------- service

SimService::Options
countingServiceOptions(std::atomic<int> &computed, size_t n_threads = 2)
{
    SimService::Options options;
    options.n_threads = n_threads;
    options.evaluator = [&computed](const SimRequest &request) {
        computed.fetch_add(1, std::memory_order_relaxed);
        return syntheticResult(request);
    };
    return options;
}

TEST(ServeService, EvaluateMemoizes)
{
    std::atomic<int> computed{0};
    SimService service(countingServiceOptions(computed));
    const SimRequest request = tinyRequest();

    const SimulationResult first = service.evaluate(request);
    const SimulationResult second = service.evaluate(request);
    EXPECT_DOUBLE_EQ(first.iteration_seconds,
                     second.iteration_seconds);
    EXPECT_EQ(computed.load(), 1);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.computed, 1u);
    EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(ServeService, EvaluateAsyncDedupesInFlight)
{
    std::atomic<int> computed{0};
    SimService::Options options;
    options.n_threads = 2;
    std::promise<void> gate;
    std::shared_future<void> gate_open = gate.get_future().share();
    options.evaluator = [&computed,
                         gate_open](const SimRequest &request) {
        gate_open.wait(); // hold the computation in flight
        computed.fetch_add(1, std::memory_order_relaxed);
        return syntheticResult(request);
    };
    SimService service(std::move(options));

    const SimRequest request = tinyRequest();
    auto f1 = service.evaluateAsync(request);
    // The fingerprint is registered in-flight before evaluateAsync
    // returns, so the second submission must join the first.
    auto f2 = service.evaluateAsync(request);
    gate.set_value();
    EXPECT_DOUBLE_EQ(f1.get().iteration_seconds,
                     f2.get().iteration_seconds);
    EXPECT_EQ(computed.load(), 1);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.inflight_joins, 1u);
    EXPECT_EQ(stats.computed, 1u);
}

TEST(ServeService, ConcurrentSynchronousCallersShareOneComputation)
{
    std::atomic<int> computed{0};
    SimService::Options options;
    options.n_threads = 2;
    std::promise<void> started;
    std::promise<void> gate;
    std::shared_future<void> gate_open = gate.get_future().share();
    options.evaluator = [&computed, &started,
                         gate_open](const SimRequest &request) {
        started.set_value(); // in-flight entry is already registered
        gate_open.wait();
        computed.fetch_add(1, std::memory_order_relaxed);
        return syntheticResult(request);
    };
    SimService service(std::move(options));

    const SimRequest request = tinyRequest();
    std::thread first(
        [&service, request] { (void)service.evaluate(request); });
    started.get_future().wait();
    std::thread second(
        [&service, request] { (void)service.evaluate(request); });
    // The second caller may join the in-flight computation, or miss
    // the cache just before the first publishes and then find the
    // result when it re-checks the cache under the in-flight lock;
    // either way the evaluator runs once.
    gate.set_value();
    first.join();
    second.join();
    EXPECT_EQ(computed.load(), 1);
}

TEST(ServeService, BatchDedupesAndPreservesOrder)
{
    std::atomic<int> computed{0};
    SimService service(countingServiceOptions(computed, 4));

    std::vector<SimRequest> requests;
    for (int i = 0; i < 24; ++i)
        requests.push_back(requestVariant(i % 6));
    const std::vector<SimulationResult> results =
        service.evaluateBatch(requests);

    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        EXPECT_DOUBLE_EQ(
            results[i].iteration_seconds,
            syntheticResult(requests[i]).iteration_seconds)
            << "batch slot " << i;
    EXPECT_EQ(computed.load(), 6);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 24u);
    EXPECT_EQ(stats.batch_dedups, 18u);
    EXPECT_EQ(stats.computed, 6u);
}

TEST(ServeService, WarmBatchIsServedFromCache)
{
    std::atomic<int> computed{0};
    SimService service(countingServiceOptions(computed, 4));
    std::vector<SimRequest> requests;
    for (int i = 0; i < 8; ++i)
        requests.push_back(requestVariant(i));

    (void)service.evaluateBatch(requests);
    EXPECT_EQ(computed.load(), 8);
    (void)service.evaluateBatch(requests);
    EXPECT_EQ(computed.load(), 8) << "warm batch must not recompute";
    EXPECT_GE(service.stats().cache.hits, 8u);
}

TEST(ServeService, BatchRoutesStructuralGroupsThroughBatchedReplay)
{
    // Four real-simulator requests that differ only in global batch
    // size (fast mode simulates the same capped prefix) form one
    // structural group: one template fetch per micro-batch count plus
    // one batched engine pass, with per-request results identical to
    // the per-request entry point.
    SimService service;
    std::vector<SimRequest> requests;
    for (int i = 1; i <= 4; ++i)
        requests.push_back(requestVariant(i));

    const std::vector<SimulationResult> batched =
        service.evaluateBatch(requests);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.computed, 4u);
    // 4 points x fast mode's two simulated micro-batch counts.
    EXPECT_EQ(stats.engine.batched_points, 8u);
    EXPECT_EQ(stats.engine.queue_runs, 0u);

    SimService individual;
    for (size_t i = 0; i < requests.size(); ++i) {
        SimulationResult want = individual.evaluate(requests[i]);
        SimulationResult got = batched[i];
        want.sim_wall_seconds = 0.0;
        got.sim_wall_seconds = 0.0;
        EXPECT_EQ(want, got) << "batch slot " << i;
    }
}

TEST(ServeService, PoolMetricsCountOneSamplePerSubmittedUnit)
{
    // A uniform group is one pool task, cold or warm, so the pool's
    // wait and run histograms gain exactly one sample per unit: the
    // warm group's retimes and replays add no helper tasks.
    util::MetricRegistry &registry = util::MetricRegistry::global();
    const util::Histogram *wait =
        registry.histogram("vtrain_pool_task_wait_seconds");
    const util::Histogram *run =
        registry.histogram("vtrain_pool_task_run_seconds");
    const uint64_t waits_before = wait->snapshot().count;
    const uint64_t runs_before = run->snapshot().count;
    {
        SimService::Options options;
        options.n_threads = 2;
        SimService service(options);
        std::vector<SimRequest> cold, warm;
        for (int i = 1; i <= 4; ++i) {
            cold.push_back(requestVariant(i));
            warm.push_back(requestVariant(i + 4));
        }
        (void)service.evaluateBatch(cold);
        (void)service.evaluateBatch(warm);
        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.computed, 8u);
        // 8 points x fast mode's two passes, the warm ones on hits.
        EXPECT_EQ(stats.engine.batched_points, 16u);
        EXPECT_EQ(stats.graph_templates.hits, 2u);
    } // joins the workers: every queued task has run and recorded
    EXPECT_EQ(wait->snapshot().count - waits_before, 2u)
        << "one wait sample per submitted unit";
    EXPECT_EQ(run->snapshot().count - runs_before, 2u);
}

TEST(ServeService, BatchInlineMatchesPooledBatch)
{
    // The inline variant (the HTTP handler's entry point) computes on
    // the calling thread but must produce the same results, counters
    // and cache state as the pooled variant.
    std::vector<SimRequest> requests;
    for (int i = 1; i <= 3; ++i)
        requests.push_back(requestVariant(i));
    requests.push_back(requestVariant(1)); // in-batch duplicate

    SimService pooled;
    const std::vector<SimulationResult> via_pool =
        pooled.evaluateBatch(requests);
    SimService inline_service;
    const std::vector<SimulationResult> via_inline =
        inline_service.evaluateBatchInline(requests);

    ASSERT_EQ(via_pool.size(), via_inline.size());
    for (size_t i = 0; i < via_pool.size(); ++i) {
        SimulationResult a = via_pool[i];
        SimulationResult b = via_inline[i];
        a.sim_wall_seconds = 0.0;
        b.sim_wall_seconds = 0.0;
        EXPECT_EQ(a, b) << "batch slot " << i;
    }

    const ServiceStats p = pooled.stats();
    const ServiceStats q = inline_service.stats();
    EXPECT_EQ(p.requests, 4u);
    EXPECT_EQ(q.requests, 4u);
    EXPECT_EQ(p.batch_dedups, 1u);
    EXPECT_EQ(q.batch_dedups, 1u);
    EXPECT_EQ(p.computed, 3u);
    EXPECT_EQ(q.computed, 3u);
    EXPECT_EQ(p.engine.batched_points, q.engine.batched_points);

    // Both variants published to their result caches: a repeat batch
    // answers without computing.
    (void)inline_service.evaluateBatchInline(requests);
    EXPECT_EQ(inline_service.stats().computed, 3u);
}

TEST(ServeService, PerturbedRequestsBypassTheCache)
{
    std::atomic<int> computed{0};
    SimService service(countingServiceOptions(computed));
    struct IdentityPerturber : Perturber {
        double perturbCompute(double d, const OpNode &) const override
        {
            return d;
        }
        double perturbComm(double d, const OpNode &) const override
        {
            return d;
        }
    } perturber;
    SimRequest request = tinyRequest();
    request.options.perturber = &perturber;

    (void)service.evaluate(request);
    (void)service.evaluate(request);
    EXPECT_EQ(computed.load(), 2);
    EXPECT_EQ(service.cache().size(), 0u);
}

TEST(ServeService, ThrowingEvaluatorDoesNotPoisonTheFingerprint)
{
    std::atomic<int> calls{0};
    SimService::Options options;
    options.n_threads = 2;
    options.evaluator = [&calls](const SimRequest &request) {
        if (calls.fetch_add(1, std::memory_order_relaxed) == 0)
            throw std::runtime_error("transient failure");
        return syntheticResult(request);
    };
    SimService service(std::move(options));
    const SimRequest request = tinyRequest();

    EXPECT_THROW((void)service.evaluate(request), std::runtime_error);
    // The failed fingerprint must recompute, not replay the failure.
    EXPECT_DOUBLE_EQ(service.evaluate(request).iteration_seconds,
                     syntheticResult(request).iteration_seconds);
    EXPECT_EQ(calls.load(), 2);
}

TEST(ServeService, AsyncFailuresArriveThroughTheFuture)
{
    std::atomic<int> calls{0};
    SimService::Options options;
    options.n_threads = 2;
    options.evaluator = [&calls](const SimRequest &request) {
        if (calls.fetch_add(1, std::memory_order_relaxed) == 0)
            throw std::runtime_error("transient failure");
        return syntheticResult(request);
    };
    SimService service(std::move(options));
    const SimRequest request = tinyRequest();

    auto failing = service.evaluateAsync(request);
    EXPECT_THROW((void)failing.get(), std::runtime_error);
    auto retry = service.evaluateAsync(request);
    EXPECT_DOUBLE_EQ(retry.get().iteration_seconds,
                     syntheticResult(request).iteration_seconds);
}

TEST(ServeService, DestructionDrainsOutstandingAsyncWork)
{
    std::atomic<int> computed{0};
    {
        SimService::Options options;
        options.n_threads = 2;
        options.evaluator = [&computed](const SimRequest &request) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            computed.fetch_add(1, std::memory_order_relaxed);
            return syntheticResult(request);
        };
        SimService service(std::move(options));
        for (int i = 0; i < 16; ++i)
            (void)service.evaluateAsync(requestVariant(i));
        // Futures dropped; the destructor must drain the queue while
        // the cache / in-flight table / counters are still alive
        // (pool_ is the last member for exactly this reason).
    }
    EXPECT_EQ(computed.load(), 16);
}

TEST(ServeService, DefaultEvaluatorMatchesSimulator)
{
    SimService service;
    const SimRequest request = tinyRequest();
    const SimulationResult served = service.evaluate(request);

    Simulator simulator(request.cluster, request.options);
    const SimulationResult direct =
        simulator.simulateIteration(request.model, request.parallel);
    EXPECT_DOUBLE_EQ(served.iteration_seconds,
                     direct.iteration_seconds);
    EXPECT_DOUBLE_EQ(served.utilization, direct.utilization);
    EXPECT_EQ(served.num_tasks, direct.num_tasks);
}

TEST(ServeService, TemplateCacheSharedAcrossComputedRequests)
{
    // Two structurally identical plans that differ in DP degree and
    // cluster: distinct result-cache fingerprints (both compute), one
    // graph template (the second request re-times the first's).
    SimService service;
    SimRequest narrow = tinyRequest();
    SimRequest wide = tinyRequest();
    wide.parallel.data = 4;
    wide.parallel.global_batch_size = 16; // same micro-batch count
    wide.cluster = makeCluster(16);

    (void)service.evaluate(narrow);
    const TemplateCacheStats primed = service.stats().graph_templates;
    EXPECT_GT(primed.insertions, 0u);

    (void)service.evaluate(wide);
    const TemplateCacheStats after = service.stats().graph_templates;
    EXPECT_GT(after.hits, primed.hits);
    EXPECT_EQ(after.entries, primed.entries)
        << "the wider plan must reuse the narrow plan's topology";
    EXPECT_EQ(service.stats().computed, 2u);
}

TEST(ServeService, StressMixedEntryPointsUnderSmallCache)
{
    std::atomic<int> computed{0};
    SimService::Options options = countingServiceOptions(computed, 4);
    options.cache.max_entries = 8; // force constant eviction churn
    options.cache.num_shards = 2;
    SimService service(std::move(options));

    constexpr int kThreads = 4;
    constexpr int kOpsPerThread = 200;
    constexpr int kDistinct = 32;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&service, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                const SimRequest request =
                    requestVariant((t * 7 + i) % kDistinct);
                const double expected =
                    syntheticResult(request).iteration_seconds;
                if (i % 3 == 0) {
                    auto future = service.evaluateAsync(request);
                    ASSERT_DOUBLE_EQ(future.get().iteration_seconds,
                                     expected);
                } else if (i % 3 == 1) {
                    ASSERT_DOUBLE_EQ(
                        service.evaluate(request).iteration_seconds,
                        expected);
                } else {
                    const auto results = service.evaluateBatch(
                        {request, requestVariant(i % kDistinct)});
                    ASSERT_DOUBLE_EQ(results[0].iteration_seconds,
                                     expected);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.computed, 0u);
    EXPECT_LE(service.cache().size(), 8u);
    // Every request was answered; the books must balance.  Batch ops
    // (every third i, starting at i=2) contribute two requests each.
    const uint64_t batch_ops = kOpsPerThread / 3;
    EXPECT_EQ(stats.requests,
              static_cast<uint64_t>(kThreads) *
                  (kOpsPerThread + batch_ops));
}

// ---------------------------------------------------------------- json

TEST(ServeJson, RequestRoundTripPreservesEverything)
{
    SimRequest request = tinyRequest();
    request.model.name = "tiny \"quoted\"\nmodel\t\\";
    request.parallel.schedule = PipelineSchedule::GPipe;
    request.parallel.gradient_bucketing = false;
    request.parallel.bucket_bytes = 12.5e6;
    request.parallel.zero_stage = 1;
    request.parallel.precision = Precision::BF16;
    request.cluster.bandwidth_effectiveness = 0.85;
    request.cluster.hierarchical_allreduce = true;
    request.cluster.node.gpu.name = "H100-mock";
    request.cluster.node.nic_latency = 7.25e-6;
    request.options.fast_mode = false;
    request.options.collapse_operators = true;
    request.options.attention = AttentionImpl::FlashAttention;

    const std::string body = wire::v1::encode(request).dump();
    SimRequest decoded;
    std::string error;
    ASSERT_TRUE(wire::v1::decode(body, &decoded, &error)) << error;
    EXPECT_EQ(decoded, request);
    EXPECT_EQ(decoded.fingerprint(), request.fingerprint());
}

TEST(ServeJson, ResultRoundTripIsBitExact)
{
    SimulationResult result;
    result.iteration_seconds = 0.1 + 0.2; // deliberately inexact
    result.utilization = 0.4218750000000001;
    result.model_flops = 3.1557e21;
    result.bubble_fraction = 1.0 / 3.0;
    result.time_by_tag = {1e-17, 2.5, 0.0, 123456.789};
    result.num_operators = 12345;
    result.num_tasks = 678910;
    result.distinct_operators_profiled = 42;
    result.profiler_calls = 42;
    result.extrapolated = true;
    result.simulated_micro_batches = 9;
    result.total_micro_batches = 240;
    result.sim_wall_seconds = 0.0317;

    const std::string body = wire::v1::encode(result).dump();
    SimulationResult decoded;
    std::string error;
    ASSERT_TRUE(wire::v1::decode(body, &decoded, &error)) << error;
    EXPECT_EQ(decoded, result);
}

TEST(ServeJson, ParserHandlesEscapesAndNesting)
{
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::Value::parse(
        R"({"a": [1, -2.5e3, true, null, "xA\n"], "b": {"c": {}}})",
        &v, &error))
        << error;
    ASSERT_TRUE(v.isObject());
    const json::Value *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 5u);
    EXPECT_DOUBLE_EQ(a->items()[1].asNumber(), -2500.0);
    EXPECT_EQ(a->items()[4].asString(), "xA\n");
    const json::Value *b = v.find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_NE(b->find("c"), nullptr);
}

TEST(ServeJson, ParserRejectsMalformedDocuments)
{
    const char *bad[] = {
        "",
        "{",
        "[1, 2",
        "{\"a\": }",
        "{\"a\": 1} trailing",
        "\"unterminated",
        "{\"a\": inf}",
        "{\"a\": 01e}",
        "\"bad \\q escape\"",
        "nul",
    };
    for (const char *text : bad) {
        json::Value v;
        std::string error;
        EXPECT_FALSE(json::Value::parse(text, &v, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(ServeJson, DecoderRejectsMissingAndMistypedFields)
{
    const SimRequest request = tinyRequest();
    const std::string body = wire::v1::encode(request).dump();

    // Break the payload in targeted ways.
    std::string no_version = body;
    const size_t at = no_version.find("\"version\"");
    ASSERT_NE(at, std::string::npos);
    no_version.replace(at, 9, "\"ver\"");
    SimRequest out;
    std::string error;
    EXPECT_FALSE(wire::v1::decode(no_version, &out, &error));
    EXPECT_NE(error.find("version"), std::string::npos);

    std::string bad_schedule = body;
    const size_t sched = bad_schedule.find("\"1f1b\"");
    ASSERT_NE(sched, std::string::npos);
    bad_schedule.replace(sched, 6, "\"zigzag\"");
    EXPECT_FALSE(wire::v1::decode(bad_schedule, &out, &error));
    EXPECT_NE(error.find("schedule"), std::string::npos);

    EXPECT_FALSE(wire::v1::decode("[]", &out, &error));
    SimulationResult result_out;
    EXPECT_FALSE(
        wire::v1::decode("{\"version\": 1}", &result_out, &error));

    // Integral-valued but out-of-range numbers must be rejected, not
    // narrowed (the decoder is the cross-process input boundary).
    json::Value huge_int = wire::v1::encode(request);
    json::Value plan = *huge_int.find("parallel");
    plan.set("zero_stage", 1e19);
    huge_int.set("parallel", std::move(plan));
    EXPECT_FALSE(wire::v1::decode(huge_int.dump(), &out, &error));
    EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(ServeJson, DecodedRequestIsServable)
{
    const SimRequest request = tinyRequest();
    SimRequest decoded;
    ASSERT_TRUE(
        wire::v1::decode(wire::v1::encode(request).dump(), &decoded));
    SimService service;
    const SimulationResult via_wire = service.evaluate(decoded);
    const SimulationResult direct = service.evaluate(request);
    // Same fingerprint: the second call must be the cached first.
    EXPECT_DOUBLE_EQ(via_wire.iteration_seconds,
                     direct.iteration_seconds);
    EXPECT_EQ(service.stats().computed, 1u);
}

// ------------------------------------------------------------ explorer

TEST(ServeExplorer, RepeatedSweepsHitTheCache)
{
    const ClusterSpec cluster = makeCluster(32);
    Explorer explorer(cluster, SimOptions{}, 2);
    SweepSpec spec;
    spec.global_batch_size = 32;
    spec.max_data = 4;
    const ModelConfig model = makeModel(1024, 8, 16, 512, 8192);
    const auto plans = enumeratePlans(model, cluster, spec);
    ASSERT_FALSE(plans.empty());

    const auto cold = explorer.sweep(model, plans);
    const uint64_t computed_after_cold =
        explorer.service().stats().computed;
    EXPECT_EQ(computed_after_cold, plans.size());

    const auto warm = explorer.sweep(model, plans);
    EXPECT_EQ(explorer.service().stats().computed, computed_after_cold)
        << "second sweep must be served from the result cache";
    ASSERT_EQ(warm.size(), cold.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_DOUBLE_EQ(warm[i].sim.iteration_seconds,
                         cold[i].sim.iteration_seconds);
}

} // namespace
} // namespace vtrain
