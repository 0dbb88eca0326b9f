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
#include <string>
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
#include "util/trace.h"

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

/** Bound on every gate wait, so a regression fails instead of hanging. */
constexpr std::chrono::seconds kGateTimeout{10};

/** Polls `done` until it holds or kGateTimeout passes. */
template <typename Predicate>
bool
waitFor(Predicate done)
{
    const auto give_up = std::chrono::steady_clock::now() + kGateTimeout;
    while (!done()) {
        if (std::chrono::steady_clock::now() > give_up)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
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

TEST(ServeService, InflightDedupAcrossConcurrentBatches)
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
        EXPECT_EQ(gate_open.wait_for(kGateTimeout),
                  std::future_status::ready);
        computed.fetch_add(1, std::memory_order_relaxed);
        return syntheticResult(request);
    };
    SimService service(std::move(options));

    const SimRequest request = tinyRequest();
    std::vector<SimulationResult> first_results, second_results;
    std::thread first([&] {
        first_results = service.evaluateBatch({request});
    });
    EXPECT_EQ(started.get_future().wait_for(kGateTimeout),
              std::future_status::ready);
    // The fingerprint stays in flight until the gate opens, so the
    // second batch must join the first batch's computation.
    std::thread second([&] {
        second_results = service.evaluateBatch({request});
    });
    EXPECT_TRUE(waitFor([&service] {
        return service.stats().inflight_joins == 1;
    }));
    gate.set_value();
    first.join();
    second.join();
    ASSERT_EQ(first_results.size(), 1u);
    ASSERT_EQ(second_results.size(), 1u);
    EXPECT_DOUBLE_EQ(first_results[0].iteration_seconds,
                     second_results[0].iteration_seconds);
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
    // A batch submits one helper task per unit beyond the first, up
    // to numThreads() - 1, and the pool's wait and run histograms
    // gain exactly one sample per submitted task.  A uniform group is
    // one unit, cold or warm, so its batch runs on the caller alone:
    // the warm group's retimes and replays add no tasks either.
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
        EXPECT_EQ(wait->snapshot().count - waits_before, 0u)
            << "a one-unit batch submits no helper";

        // Two structural groups (different pipeline depths) are two
        // units: one helper task.
        SimRequest shallow = requestVariant(9);
        shallow.parallel.pipeline = 1;
        shallow.parallel.data = 4;
        (void)service.evaluateBatch({requestVariant(10), shallow});
        EXPECT_EQ(service.stats().computed, 10u);
    } // joins the workers: every queued task has run and recorded
    EXPECT_EQ(wait->snapshot().count - waits_before, 1u)
        << "one wait sample per submitted helper";
    EXPECT_EQ(run->snapshot().count - runs_before, 1u);
}

TEST(ServeService, BatchMatchesAcrossPoolSizes)
{
    // On one thread the caller computes every unit; on four, helpers
    // share them.  Results, counters and cache state must not depend
    // on which threads ran the units.
    std::vector<SimRequest> requests;
    for (int i = 1; i <= 3; ++i)
        requests.push_back(requestVariant(i));
    SimRequest shallow = requestVariant(4);
    shallow.parallel.pipeline = 1;
    shallow.parallel.data = 4;
    requests.push_back(shallow);           // its own structural group
    requests.push_back(requestVariant(1)); // in-batch duplicate

    SimService::Options one_thread;
    one_thread.n_threads = 1;
    SimService::Options four_threads;
    four_threads.n_threads = 4;
    SimService serial(one_thread);
    const std::vector<SimulationResult> via_caller =
        serial.evaluateBatch(requests);
    SimService pooled(four_threads);
    const std::vector<SimulationResult> via_helpers =
        pooled.evaluateBatch(requests);

    ASSERT_EQ(via_caller.size(), via_helpers.size());
    for (size_t i = 0; i < via_caller.size(); ++i) {
        SimulationResult a = via_caller[i];
        SimulationResult b = via_helpers[i];
        a.sim_wall_seconds = 0.0;
        b.sim_wall_seconds = 0.0;
        EXPECT_EQ(a, b) << "batch slot " << i;
    }

    for (const SimService *service : {&serial, &pooled}) {
        const ServiceStats stats = service->stats();
        EXPECT_EQ(stats.requests, 5u);
        EXPECT_EQ(stats.batch_dedups, 1u);
        EXPECT_EQ(stats.computed, 4u);
    }
    EXPECT_EQ(serial.stats().engine.batched_points,
              pooled.stats().engine.batched_points);

    // Both published to their result caches: a repeat batch answers
    // without computing.
    (void)serial.evaluateBatch(requests);
    EXPECT_EQ(serial.stats().computed, 4u);
}

TEST(ServeService, BatchFromPoolTaskComputesOnTheCaller)
{
    // A task on a saturated one-worker pool calls evaluateBatch, as
    // the HTTP batch handler does.  The batch has to run on that
    // worker, its caller: units queued behind the task would never
    // start, and the worker would wait on them forever.
    std::promise<void> started;
    std::atomic<bool> started_once{false};
    std::promise<void> gate;
    std::shared_future<void> gate_open = gate.get_future().share();
    std::atomic<std::thread::id> caller{};
    std::atomic<int> computed{0};
    std::atomic<int> off_caller{0};
    SimService::Options options;
    options.n_threads = 1;
    options.evaluator = [&](const SimRequest &request) {
        if (!started_once.exchange(true))
            started.set_value();
        if (gate_open.wait_for(kGateTimeout) !=
            std::future_status::ready)
            throw std::runtime_error("gate never opened");
        if (std::this_thread::get_id() != caller.load())
            off_caller.fetch_add(1);
        computed.fetch_add(1);
        return syntheticResult(request);
    };
    std::vector<SimRequest> requests;
    for (int i = 0; i < 4; ++i)
        requests.push_back(requestVariant(i));
    std::promise<std::vector<SimulationResult>> answers;
    std::future<std::vector<SimulationResult>> answered =
        answers.get_future();
    auto service = std::make_unique<SimService>(std::move(options));

    SimService *raw = service.get();
    service->pool().submit([&, raw] {
        caller.store(std::this_thread::get_id());
        try {
            answers.set_value(raw->evaluateBatch(requests));
        } catch (...) {
            answers.set_exception(std::current_exception());
        }
    });
    const bool ran = started.get_future().wait_for(kGateTimeout) ==
                     std::future_status::ready;
    gate.set_value();
    if (!ran ||
        answered.wait_for(kGateTimeout) != std::future_status::ready) {
        // The only worker waits on its own queue.  Leak the service:
        // its destructor would join that worker forever.
        ADD_FAILURE() << "evaluateBatch from a pool task never ran "
                         "its units";
        (void)service.release();
        return;
    }
    const std::vector<SimulationResult> results = answered.get();
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i].iteration_seconds,
                         syntheticResult(requests[i]).iteration_seconds);
    EXPECT_EQ(computed.load(), 4);
    EXPECT_EQ(off_caller.load(), 0);
}

TEST(ServeService, BatchRunsAtMostNumThreadsEvaluationsAtOnce)
{
    // Every evaluation holds at a gate until numThreads() of them run
    // at once, so the batch must spread to exactly that width: the
    // caller plus numThreads() - 1 helpers, never more.
    constexpr int kThreads = 3;
    std::atomic<int> active{0};
    std::atomic<int> peak{0};
    std::atomic<bool> opened{false};
    std::promise<void> gate;
    std::shared_future<void> gate_open = gate.get_future().share();
    const auto open = [&] {
        if (!opened.exchange(true))
            gate.set_value();
    };
    SimService::Options options;
    options.n_threads = kThreads;
    options.evaluator = [&](const SimRequest &request) {
        const int now = active.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        if (now == kThreads) {
            // Full width: linger so a thread beyond the budget, if
            // any, would show up in `peak`.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            open();
        }
        if (gate_open.wait_for(kGateTimeout) !=
            std::future_status::ready)
            open(); // never reached full width: let the batch finish
        active.fetch_sub(1);
        return syntheticResult(request);
    };
    SimService service(std::move(options));
    ASSERT_EQ(service.numThreads(), static_cast<size_t>(kThreads));

    std::vector<SimRequest> requests;
    for (int i = 0; i < 12; ++i)
        requests.push_back(requestVariant(i));
    const std::vector<SimulationResult> results =
        service.evaluateBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i].iteration_seconds,
                         syntheticResult(requests[i]).iteration_seconds);
    EXPECT_EQ(peak.load(), kThreads);
    EXPECT_EQ(service.stats().computed, 12u);
}

TEST(ServeService, BatchHelpersThatStartLateAreNoOps)
{
    // Both workers are busy, so the batch's helper task queues and
    // the caller computes every unit itself.  The helper runs only
    // after the batch returned and its requests, futures and results
    // are gone; it must find the work list empty and touch nothing
    // else (ASan would flag a use-after-free).
    util::MetricRegistry &registry = util::MetricRegistry::global();
    const util::Histogram *run =
        registry.histogram("vtrain_pool_task_run_seconds");
    std::atomic<int> computed{0};
    std::atomic<int> blocked{0};
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    const uint64_t runs_before = run->snapshot().count;
    {
        SimService service(countingServiceOptions(computed, 2));
        for (int w = 0; w < 2; ++w)
            service.pool().submit([&blocked, released] {
                blocked.fetch_add(1);
                (void)released.wait_for(kGateTimeout);
            });
        ASSERT_TRUE(waitFor([&blocked] { return blocked.load() == 2; }));
        {
            std::vector<SimRequest> requests;
            for (int i = 0; i < 6; ++i)
                requests.push_back(requestVariant(i));
            const std::vector<SimulationResult> results =
                service.evaluateBatch(requests);
            ASSERT_EQ(results.size(), requests.size());
            for (size_t i = 0; i < requests.size(); ++i)
                EXPECT_DOUBLE_EQ(
                    results[i].iteration_seconds,
                    syntheticResult(requests[i]).iteration_seconds);
        }
        EXPECT_EQ(computed.load(), 6);
        release.set_value();
    } // the destructor drains the queue: the late helper runs here
    EXPECT_EQ(computed.load(), 6) << "a late helper recomputed a unit";
    EXPECT_EQ(run->snapshot().count - runs_before, 3u)
        << "two blockers plus the one helper";
}

TEST(ServeService, BatchTraceHoldsTheComputeSpansOfHelperUnits)
{
    // Each evaluation waits until two run at once, so the helper
    // computes at least one of the 8 units.  The caller's trace must
    // still hold one "service.compute" span per unit.
    std::atomic<int> active{0};
    std::promise<void> gate;
    std::shared_future<void> gate_open = gate.get_future().share();
    SimService::Options options;
    options.n_threads = 2;
    options.evaluator = [&](const SimRequest &request) {
        if (active.fetch_add(1) + 1 == 2)
            gate.set_value();
        (void)gate_open.wait_for(kGateTimeout);
        return syntheticResult(request);
    };
    SimService service(std::move(options));

    std::vector<SimRequest> requests;
    for (int i = 0; i < 8; ++i)
        requests.push_back(requestVariant(i));
    util::TraceCapture capture("batch");
    const std::vector<SimulationResult> results =
        service.evaluateBatch(requests);
    const util::Trace trace = capture.finish();
    ASSERT_EQ(results.size(), requests.size());
    ASSERT_EQ(service.stats().computed, 8u);

    size_t computes = 0;
    for (const util::TraceEvent &event : trace.events) {
        if (std::string(event.name) != "service.compute")
            continue;
        ++computes;
        EXPECT_EQ(event.depth, 0);
        EXPECT_GE(event.start_us, 0.0);
        EXPECT_LE(event.start_us + event.dur_us, trace.total_us);
    }
    EXPECT_EQ(computes, 8u);
    EXPECT_EQ(trace.dropped_spans, 0u);
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

TEST(ServeService, BatchFailureDoesNotPoisonTheFingerprint)
{
    // The first computation of `failing` throws, on whichever thread
    // ran its unit; the batch rethrows it through the shared future.
    // A retry must recompute it, not replay the failure.
    const SimRequest failing = requestVariant(0);
    const SimRequest fine = requestVariant(1);
    std::atomic<int> failing_calls{0};
    std::atomic<int> fine_calls{0};
    SimService::Options options;
    options.n_threads = 2;
    options.evaluator = [&](const SimRequest &request) {
        if (request == failing) {
            if (failing_calls.fetch_add(1) == 0)
                throw std::runtime_error("transient failure");
        } else {
            fine_calls.fetch_add(1);
        }
        return syntheticResult(request);
    };
    SimService service(std::move(options));

    EXPECT_THROW((void)service.evaluateBatch({failing, fine}),
                 std::runtime_error);
    const std::vector<SimulationResult> retry =
        service.evaluateBatch({failing, fine});
    ASSERT_EQ(retry.size(), 2u);
    EXPECT_DOUBLE_EQ(retry[0].iteration_seconds,
                     syntheticResult(failing).iteration_seconds);
    EXPECT_DOUBLE_EQ(retry[1].iteration_seconds,
                     syntheticResult(fine).iteration_seconds);
    EXPECT_EQ(failing_calls.load(), 2);
    EXPECT_EQ(fine_calls.load(), 1) << "the good point is cached or "
                                       "joined, never recomputed";
}

TEST(ServeService, DestructionDrainsOutstandingAsyncWork)
{
    // The batch's first point fails fast, so evaluateBatch rethrows
    // while helpers may still be computing other units.  Destroying
    // the service right away must wait for them while the cache,
    // in-flight table and counters they publish into are still alive
    // (pool_ is the last member for exactly this reason).
    std::atomic<int> computed{0};
    {
        SimService::Options options;
        options.n_threads = 4;
        options.evaluator = [&computed](const SimRequest &request) {
            if (request == requestVariant(0))
                throw std::runtime_error("fails fast");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            computed.fetch_add(1, std::memory_order_relaxed);
            return syntheticResult(request);
        };
        SimService service(std::move(options));
        std::vector<SimRequest> requests;
        for (int i = 0; i < 16; ++i)
            requests.push_back(requestVariant(i));
        EXPECT_THROW((void)service.evaluateBatch(requests),
                     std::runtime_error);
    }
    EXPECT_EQ(computed.load(), 15);
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
                    // A one-request batch from a task on the
                    // service's own pool, as the HTTP handlers call.
                    std::promise<double> answer;
                    std::future<double> answered = answer.get_future();
                    service.pool().submit([&service, &answer, request] {
                        try {
                            answer.set_value(
                                service.evaluateBatch({request})[0]
                                    .iteration_seconds);
                        } catch (...) {
                            answer.set_exception(
                                std::current_exception());
                        }
                    });
                    ASSERT_DOUBLE_EQ(answered.get(), expected);
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
