/**
 * @file
 * Tests of the distributed sweep stack: the strict wire codecs for
 * sweep payloads, the coordinator's consistent-hash ring, and the
 * end-to-end multi-server path — real HttpServer shards on loopback
 * ports, merged results bit-identical to a local Explorer::sweep,
 * deterministic failover when a shard dies mid-sweep, and bounded
 * retry on transient failures.  Every suite name starts with "Sweep"
 * so CI can select the subsystem with `ctest -R '^Sweep'` (the TSan
 * job does).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "explore/explorer.h"
#include "model/zoo.h"
#include "net/http_client.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/http_frontend.h"
#include "serve/sweep_coordinator.h"
#include "serve/wire.h"
#include "sim/simulator.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace vtrain {
namespace {

ModelConfig
tinyModel()
{
    return makeModel(512, 4, 8, 128, 1024);
}

/** A small but multi-group design space on an 8-GPU cluster. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.global_batch_size = 32;
    spec.micro_batch_sizes = {1, 2};
    return spec;
}

std::vector<ParallelConfig>
tinyPlans(const ClusterSpec &cluster)
{
    return enumeratePlans(tinyModel(), cluster, tinySpec());
}

/** sim_wall_seconds is the one nondeterministic result field (it
 *  measures this process's wall clock); zero it before comparing
 *  local and remote computations of the same points. */
std::vector<ExploreResult>
withoutWallTime(std::vector<ExploreResult> results)
{
    for (ExploreResult &result : results)
        result.sim.sim_wall_seconds = 0.0;
    return results;
}

void
expectSameResults(const std::vector<ExploreResult> &a,
                  const std::vector<ExploreResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].plan, b[i].plan) << "plan " << i;
        EXPECT_EQ(a[i].sim, b[i].sim) << "result " << i;
    }
}

/** Deterministic request -> result mapping; no real simulation. */
SimulationResult
syntheticResult(const SimRequest &request)
{
    SimulationResult result;
    result.iteration_seconds =
        static_cast<double>(request.fingerprint() % 100003) + 1.0;
    return result;
}

SimService::Options
syntheticServiceOptions(size_t n_threads = 2)
{
    SimService::Options options;
    options.n_threads = n_threads;
    options.evaluator = syntheticResult;
    return options;
}

/** One shard: a SimService behind a real loopback HttpFrontend. */
struct ShardStack {
    explicit ShardStack(SimService::Options service_options = {},
                        HttpFrontend::Options frontend_options = {})
        : service(std::move(service_options)),
          frontend(service, std::move(frontend_options))
    {
        std::string error;
        if (!frontend.start(&error))
            ADD_FAILURE() << "shard start: " << error;
    }

    uint16_t port() const { return frontend.port(); }

    SimService service;
    HttpFrontend frontend;
};

SweepCoordinator::Options
coordinatorOptions(const std::vector<uint16_t> &ports)
{
    SweepCoordinator::Options options;
    for (const uint16_t port : ports)
        options.shards.push_back(ShardEndpoint{"127.0.0.1", port});
    options.backoff_initial_ms = 10;
    return options;
}

// ------------------------------------------------------------- codecs

TEST(SweepCodec, SpecRoundTripPreservesEveryField)
{
    SweepSpec spec;
    spec.max_tensor = 4;
    spec.max_data = 16;
    spec.max_pipeline = 2;
    spec.micro_batch_sizes = {2, 8};
    spec.min_gpus = 8;
    spec.max_gpus = 64;
    spec.exact_gpus = 0;
    spec.require_memory_fit = false;
    spec.global_batch_size = 512;
    spec.schedule = PipelineSchedule::GPipe;
    spec.gradient_bucketing = false;
    spec.activation_recompute = false;
    spec.precision = Precision::BF16;

    SweepSpec decoded;
    std::string error;
    ASSERT_TRUE(wire::v1::decode(wire::v1::encode(spec), &decoded,
                                 &error))
        << error;
    EXPECT_EQ(decoded.max_tensor, spec.max_tensor);
    EXPECT_EQ(decoded.max_data, spec.max_data);
    EXPECT_EQ(decoded.max_pipeline, spec.max_pipeline);
    EXPECT_EQ(decoded.micro_batch_sizes, spec.micro_batch_sizes);
    EXPECT_EQ(decoded.min_gpus, spec.min_gpus);
    EXPECT_EQ(decoded.max_gpus, spec.max_gpus);
    EXPECT_EQ(decoded.exact_gpus, spec.exact_gpus);
    EXPECT_EQ(decoded.require_memory_fit, spec.require_memory_fit);
    EXPECT_EQ(decoded.global_batch_size, spec.global_batch_size);
    EXPECT_EQ(decoded.schedule, spec.schedule);
    EXPECT_EQ(decoded.gradient_bucketing, spec.gradient_bucketing);
    EXPECT_EQ(decoded.activation_recompute,
              spec.activation_recompute);
    EXPECT_EQ(decoded.precision, spec.precision);

    // The enumeration the two sides would run must agree.
    const ClusterSpec cluster = makeCluster(64);
    EXPECT_EQ(enumeratePlans(tinyModel(), cluster, decoded).size(),
              enumeratePlans(tinyModel(), cluster, spec).size());
}

TEST(SweepCodec, SpecRejectsUnknownField)
{
    json::Value doc = wire::v1::encode(SweepSpec{});
    doc.set("max_tnsor", int64_t{4}); // typo'd bound
    SweepSpec decoded;
    std::string error;
    EXPECT_FALSE(wire::v1::decode(doc, &decoded, &error));
    EXPECT_NE(error.find("unknown field"), std::string::npos) << error;
    EXPECT_NE(error.find("max_tnsor"), std::string::npos) << error;
}

TEST(SweepCodec, SpecRejectsOutOfRangeMicroBatchSize)
{
    // 2^32 + 1 used to narrow silently to 1 and enumerate the wrong
    // space; every wire integer is range-checked against its field.
    for (const double bad : {4294967297.0, 1.5, 1e300}) {
        json::Value doc = wire::v1::encode(SweepSpec{});
        json::Value sizes = json::Value::array();
        sizes.push(int64_t{4});
        sizes.push(bad);
        doc.set("micro_batch_sizes", std::move(sizes));
        SweepSpec decoded;
        std::string error;
        EXPECT_FALSE(wire::v1::decode(doc, &decoded, &error)) << bad;
        EXPECT_NE(error.find("micro_batch_sizes"), std::string::npos)
            << error;
    }
}

TEST(SweepCodec, SweepRequestIsStrictAtEveryLevel)
{
    wire::v1::SweepRequest request;
    request.model = tinyModel();
    request.cluster = makeCluster(8);
    request.use_spec = true;
    request.spec = tinySpec();

    // The well-formed payload decodes...
    wire::v1::SweepRequest decoded;
    std::string error;
    ASSERT_TRUE(
        wire::v1::decode(wire::v1::encode(request), &decoded, &error))
        << error;
    EXPECT_TRUE(decoded.use_spec);
    EXPECT_EQ(decoded.model.name, request.model.name);

    // ...an unknown top-level field does not...
    json::Value extra_top = wire::v1::encode(request);
    extra_top.set("shard_hint", int64_t{3});
    EXPECT_FALSE(wire::v1::decode(extra_top, &decoded, &error));
    EXPECT_NE(error.find("unknown field"), std::string::npos) << error;

    // ...nor does an unknown field nested inside the model...
    json::Value bad_model = wire::v1::encode(request);
    json::Value model_copy = *bad_model.find("model");
    model_copy.set("n_heds", int64_t{8});
    bad_model.set("model", std::move(model_copy));
    EXPECT_FALSE(wire::v1::decode(bad_model, &decoded, &error));
    EXPECT_NE(error.find("unknown field"), std::string::npos) << error;

    // ...and carrying both 'plans' and 'spec' is rejected outright.
    json::Value both = wire::v1::encode(request);
    both.set("plans", json::Value::array());
    EXPECT_FALSE(wire::v1::decode(both, &decoded, &error));
    EXPECT_NE(error.find("exactly one"), std::string::npos) << error;

    wire::v1::SweepRequest neither_request = request;
    neither_request.use_spec = false; // empty plan list, no spec
    json::Value neither = wire::v1::encode(neither_request);
    // (An explicit empty plan list IS valid; drop it to test absence.)
    json::Value stripped = json::Value::object();
    for (const auto &[key, value] : neither.members())
        if (key != "plans")
            stripped.set(key, value);
    EXPECT_FALSE(wire::v1::decode(stripped, &decoded, &error));
    EXPECT_NE(error.find("exactly one"), std::string::npos) << error;
}

TEST(SweepCodec, SweepResponseRoundTripIsBitExact)
{
    std::vector<ExploreResult> results(2);
    results[0].plan.tensor = 2;
    results[0].plan.data = 2;
    results[0].plan.pipeline = 2;
    results[0].sim.iteration_seconds = 0.1 + 0.2; // inexact on purpose
    results[0].sim.utilization = 1.0 / 3.0;
    results[0].sim.time_by_tag = {1e-17, 2.5, 0.0, 123456.789};
    results[1].plan.data = 8;
    results[1].sim.iteration_seconds = 3.1557e21;
    results[1].sim.extrapolated = true;

    std::vector<ExploreResult> decoded;
    std::string error;
    ASSERT_TRUE(wire::v1::decodeSweepResponse(
        wire::v1::encodeSweepResponse(results), &decoded, &error))
        << error;
    expectSameResults(decoded, results);
}

TEST(SweepCodec, SweepResponseRejectsUnknownResultField)
{
    std::vector<ExploreResult> results(1);
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::Value::parse(
        wire::v1::encodeSweepResponse(results), &doc, &error))
        << error;
    json::Value item = doc.find("results")->items()[0];
    item.set("debug_shard", "127.0.0.1:9");
    json::Value items = json::Value::array();
    items.push(std::move(item));
    doc.set("results", std::move(items));

    std::vector<ExploreResult> decoded;
    EXPECT_FALSE(
        wire::v1::decodeSweepResponse(doc.dump(), &decoded, &error));
    EXPECT_NE(error.find("unknown field"), std::string::npos) << error;
}

// --------------------------------------------------------------- ring

TEST(SweepRing, RemovingAShardOnlyMovesItsKeys)
{
    // Ports never dialed: the ring is built in the constructor and
    // shardForKey is pure.
    SweepCoordinator coordinator(
        coordinatorOptions({11001, 11002, 11003, 11004}));
    ASSERT_EQ(coordinator.numShards(), 4u);

    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 512; ++i)
        keys.push_back(Hash64(7).mix(int64_t(i)).digest());

    std::vector<size_t> baseline;
    for (const uint64_t key : keys)
        baseline.push_back(coordinator.shardForKey(key));

    // Every shard should own a nontrivial share of a spread keyset.
    std::vector<int> owned(4, 0);
    for (const size_t shard : baseline)
        ++owned[shard];
    for (int count : owned)
        EXPECT_GT(count, 0);

    // Kill shard 2: its keys move to the next ring node; every other
    // key stays put (the property that keeps template caches warm).
    std::vector<bool> dead(4, false);
    dead[2] = true;
    for (size_t i = 0; i < keys.size(); ++i) {
        const size_t rerouted = coordinator.shardForKey(keys[i], dead);
        if (baseline[i] == 2)
            EXPECT_NE(rerouted, 2u);
        else
            EXPECT_EQ(rerouted, baseline[i]);
    }

    // All dead: the sentinel (numShards) reports "nowhere to go".
    EXPECT_EQ(coordinator.shardForKey(keys[0], {true, true, true, true}),
              coordinator.numShards());
}

TEST(SweepRing, RoutingKeyIsDeterministicAndGroupAligned)
{
    SimRequest request;
    request.model = tinyModel();
    request.parallel.tensor = 2;
    request.parallel.data = 2;
    request.parallel.pipeline = 2;
    request.parallel.micro_batch_size = 1;
    request.parallel.global_batch_size = 8;
    request.cluster = makeCluster(8);

    const uint64_t key = SweepCoordinator::routingKey(request);
    EXPECT_EQ(SweepCoordinator::routingKey(request), key);

    const uint64_t group =
        batchGroupKey(request.model, request.parallel, request.cluster,
                      request.options);
    if (group != 0) {
        // Batchable points route by their structural group, so the
        // whole group lands on one shard.
        EXPECT_EQ(key, group);
    }

    SimRequest other = request;
    other.model.num_layers *= 2;
    EXPECT_NE(SweepCoordinator::routingKey(other), key);
}

// -------------------------------------------------- distributed sweeps

TEST(SweepDistributed, TwoShardMergeIsBitIdenticalToLocalSweep)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    const std::vector<ParallelConfig> plans = tinyPlans(cluster);
    ASSERT_GT(plans.size(), 2u);

    Explorer local(cluster, SimOptions{}, 2);
    const std::vector<ExploreResult> expected =
        withoutWallTime(local.sweep(model, plans));

    ShardStack shard_a;
    ShardStack shard_b;
    SweepCoordinator coordinator(
        coordinatorOptions({shard_a.port(), shard_b.port()}));
    const std::vector<ExploreResult> merged = withoutWallTime(
        coordinator.sweep(
            sweepRequests(model, cluster, SimOptions{}, plans)));

    expectSameResults(merged, expected);

    // Both shards worked, nothing was retried, and the coordinator's
    // books balance: every plan went out exactly once.
    const SweepCoordinatorStats stats = coordinator.stats();
    EXPECT_EQ(stats.sweeps, 1u);
    EXPECT_EQ(stats.plans, plans.size());
    EXPECT_GT(stats.groups, 1u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.failovers, 0u);
    ASSERT_EQ(stats.shards.size(), 2u);
    uint64_t dispatched = 0;
    for (const SweepShardStats &shard : stats.shards) {
        EXPECT_GT(shard.requests, 0u) << shard.shard;
        dispatched += shard.plans;
    }
    EXPECT_EQ(dispatched, plans.size());
}

TEST(SweepDistributed, ExplorerRemoteBackendMatchesLocal)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    const std::vector<ParallelConfig> plans = tinyPlans(cluster);

    Explorer local(cluster, SimOptions{}, 2);
    const std::vector<ExploreResult> expected =
        withoutWallTime(local.sweep(model, plans));

    ShardStack shard_a;
    ShardStack shard_b;
    Explorer remote(cluster, SimOptions{}, 2);
    EXPECT_EQ(remote.remoteBackend(), nullptr);
    remote.setRemoteShards(
        {"127.0.0.1:" + std::to_string(shard_a.port()),
         "127.0.0.1:" + std::to_string(shard_b.port())});
    ASSERT_NE(remote.remoteBackend(), nullptr);

    expectSameResults(withoutWallTime(remote.sweep(model, plans)),
                      expected);
    EXPECT_EQ(remote.remoteBackend()->stats().plans, plans.size());

    EXPECT_THROW(remote.setRemoteShards({"no-port-here"}),
                 std::invalid_argument);
}

TEST(SweepDistributed, HttpSweepEndpointMatchesLocalAndFillsStatz)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();

    Explorer local(cluster, SimOptions{}, 2);
    const std::vector<ExploreResult> expected =
        withoutWallTime(local.sweep(model, tinySpec()));
    ASSERT_FALSE(expected.empty());

    ShardStack shard_a;
    ShardStack shard_b;
    SweepCoordinator coordinator(
        coordinatorOptions({shard_a.port(), shard_b.port()}));

    // The coordinator node: its own (idle) service plus the fan-out.
    SimService coordinator_service;
    HttpFrontend::Options frontend_options;
    frontend_options.coordinator = &coordinator;
    HttpFrontend frontend(coordinator_service, frontend_options);
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;

    // POST a spec-mode sweep: the coordinator enumerates, partitions
    // by group, and the shards compute.
    wire::v1::SweepRequest sweep_request;
    sweep_request.model = model;
    sweep_request.cluster = cluster;
    sweep_request.use_spec = true;
    sweep_request.spec = tinySpec();

    net::HttpClient client("127.0.0.1", frontend.port());
    net::HttpResponse response;
    ASSERT_TRUE(client.post("/v1/sweep",
                            wire::v1::encode(sweep_request).dump(),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;

    std::vector<ExploreResult> merged;
    ASSERT_TRUE(
        wire::v1::decodeSweepResponse(response.body, &merged, &error))
        << error;
    expectSameResults(withoutWallTime(std::move(merged)), expected);

    // /statz nests the sweep counters under the stable "sweep" key.
    ASSERT_TRUE(client.get("/statz", &response, &error)) << error;
    json::Value statz;
    ASSERT_TRUE(json::Value::parse(response.body, &statz, &error))
        << error;
    const json::Value *sweep = statz.find("sweep");
    ASSERT_NE(sweep, nullptr) << response.body;
    const json::Value *server = sweep->find("server");
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->find("requests")->asInt64(), 1);
    EXPECT_EQ(server->find("plans")->asInt64(),
              static_cast<int64_t>(expected.size()));
    const json::Value *coord = sweep->find("coordinator");
    ASSERT_NE(coord, nullptr);
    EXPECT_EQ(coord->find("sweeps")->asInt64(), 1);
    EXPECT_EQ(coord->find("plans")->asInt64(),
              static_cast<int64_t>(expected.size()));
    ASSERT_NE(coord->find("shards"), nullptr);
    EXPECT_EQ(coord->find("shards")->items().size(), 2u);

    // A shard (no coordinator) reports the server block only.
    net::HttpClient shard_client("127.0.0.1", shard_a.port());
    ASSERT_TRUE(shard_client.get("/statz", &response, &error)) << error;
    ASSERT_TRUE(json::Value::parse(response.body, &statz, &error))
        << error;
    const json::Value *shard_sweep = statz.find("sweep");
    ASSERT_NE(shard_sweep, nullptr);
    EXPECT_NE(shard_sweep->find("server"), nullptr);
    EXPECT_EQ(shard_sweep->find("coordinator"), nullptr);
}

TEST(SweepDistributed, ShardSideEndpointServesExplicitPlans)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    const std::vector<ParallelConfig> plans = tinyPlans(cluster);

    ShardStack shard(syntheticServiceOptions());
    wire::v1::SweepRequest sweep_request;
    sweep_request.model = model;
    sweep_request.cluster = cluster;
    sweep_request.plans = plans;

    net::HttpClient client("127.0.0.1", shard.port());
    net::HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/sweep",
                            wire::v1::encode(sweep_request).dump(),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;

    std::vector<ExploreResult> results;
    ASSERT_TRUE(
        wire::v1::decodeSweepResponse(response.body, &results, &error))
        << error;
    ASSERT_EQ(results.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        EXPECT_EQ(results[i].plan, plans[i]);
        SimRequest request;
        request.model = model;
        request.parallel = plans[i];
        request.cluster = cluster;
        EXPECT_EQ(results[i].sim.iteration_seconds,
                  syntheticResult(request).iteration_seconds);
    }

    // Malformed sweep bodies get the shared error envelope.
    ASSERT_TRUE(
        client.post("/v1/sweep", "{\"version\":1}", &response, &error))
        << error;
    EXPECT_EQ(response.status, 400);
    json::Value envelope;
    ASSERT_TRUE(json::Value::parse(response.body, &envelope, &error));
    ASSERT_NE(envelope.find("error"), nullptr) << response.body;
    EXPECT_EQ(envelope.find("error")->find("code")->asInt64(), 400);
}

// ------------------------------------------------------------ failover

TEST(SweepFailover, DeadShardFailsOverWithoutChangingResults)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    const std::vector<ParallelConfig> plans = tinyPlans(cluster);

    Explorer local(cluster, SimOptions{}, 2);
    const std::vector<ExploreResult> expected =
        withoutWallTime(local.sweep(model, plans));

    ShardStack shard_a;
    ShardStack shard_b;
    ShardStack shard_c;

    // A deterministic "shard B is dead" fault: the injector rule keys
    // on B's host:port, so the coordinator's dials to B are refused
    // while A and C serve normally.  The coordinator fails B's groups
    // over to the next ring node and the merged results must not
    // change.
    net::FaultInjector injector(17);
    net::FaultInjector::Rule dead;
    dead.match =
        "127.0.0.1:" + std::to_string(shard_b.port()) + "<";
    dead.kind = net::FaultKind::RefuseConnect;
    injector.addRule(dead);

    SweepCoordinator::Options options = coordinatorOptions(
        {shard_a.port(), shard_b.port(), shard_c.port()});
    options.fault_injector = &injector;
    SweepCoordinator coordinator(std::move(options));

    const std::vector<ExploreResult> merged = withoutWallTime(
        coordinator.sweep(
            sweepRequests(model, cluster, SimOptions{}, plans)));
    expectSameResults(merged, expected);

    const SweepCoordinatorStats stats = coordinator.stats();
    EXPECT_GT(stats.failovers, 0u);
    ASSERT_EQ(stats.shards.size(), 3u);
    EXPECT_GE(stats.shards[1].failures, 1u);
    EXPECT_EQ(stats.shards[1].plans, 0u);

    // Dead marks are per sweep: a second sweep re-dials everyone and
    // still answers correctly (b is still refused, so it fails over
    // again rather than erroring out).
    expectSameResults(
        withoutWallTime(
            coordinator.sweep(
                sweepRequests(model, cluster, SimOptions{}, plans))),
        expected);
}

TEST(SweepFailover, HungShardTimesOutAndFailsOver)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    const std::vector<ParallelConfig> plans = tinyPlans(cluster);

    Explorer local(cluster, SimOptions{}, 2);
    const std::vector<ExploreResult> expected =
        withoutWallTime(local.sweep(model, plans));

    // Shard B hangs: a server-side latency injection on /v1/sweep
    // holds every answer past the coordinator's io timeout — the
    // "alive but wedged" shape, which surfaces as a typed timeout
    // rather than a refused connect.
    net::FaultInjector injector(23);
    net::FaultInjector::Rule hang;
    hang.match = "/v1/sweep";
    hang.kind = net::FaultKind::InjectLatency;
    hang.latency_ms = 800;
    injector.addRule(hang);

    HttpFrontend::Options hung_options;
    hung_options.fault_injector = &injector;
    ShardStack shard;
    ShardStack hung({}, std::move(hung_options));

    SweepCoordinator::Options options =
        coordinatorOptions({shard.port(), hung.port()});
    options.io_timeout_ms = 250;
    options.max_attempts = 2;
    SweepCoordinator coordinator(std::move(options));

    const std::vector<ExploreResult> merged = withoutWallTime(
        coordinator.sweep(
            sweepRequests(model, cluster, SimOptions{}, plans)));
    expectSameResults(merged, expected);

    const SweepCoordinatorStats stats = coordinator.stats();
    EXPECT_GT(stats.retries, 0u);   // timeout is transient: retried
    EXPECT_GT(stats.failovers, 0u); // then the shard was written off
    ASSERT_EQ(stats.shards.size(), 2u);
    EXPECT_EQ(stats.shards[1].plans, 0u);
    EXPECT_EQ(stats.shards[0].plans, plans.size());
}

TEST(SweepFailover, TransientRejectionRetriesHonoringRetryAfter)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    std::vector<ParallelConfig> plans = tinyPlans(cluster);
    plans.resize(std::min<size_t>(plans.size(), 4));

    // The shard sheds the first slice request with 503 +
    // Retry-After: 1 (an overload blip) and serves normally
    // afterwards: a client-side rule forcing the status keeps the
    // shard itself untouched.
    net::FaultInjector injector(29);
    net::FaultInjector::Rule blip;
    blip.match = "/v1/sweep";
    blip.kind = net::FaultKind::ForceStatus;
    blip.status = 503;
    blip.retry_after_s = 1;
    blip.max_hits = 1;
    injector.addRule(blip);

    ShardStack shard(syntheticServiceOptions());
    SweepCoordinator::Options options =
        coordinatorOptions({shard.port()});
    options.fault_injector = &injector;
    SweepCoordinator coordinator(std::move(options));

    const auto start = std::chrono::steady_clock::now();
    const std::vector<ExploreResult> results =
        coordinator.sweep(
            sweepRequests(model, cluster, SimOptions{}, plans));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    ASSERT_EQ(results.size(), plans.size());

    // The shard's Retry-After hint (1s) must stretch the next backoff
    // sleep past the blind exponential default (10ms).
    EXPECT_GE(elapsed.count(), 1000);

    const SweepCoordinatorStats stats = coordinator.stats();
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(stats.shards[0].plans, plans.size());
}

// ------------------------------------------------------------ deadline

TEST(SweepDeadline, ExpiredBudgetThrowsBeforeAnyDispatch)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    const std::vector<ParallelConfig> plans = tinyPlans(cluster);

    ShardStack shard(syntheticServiceOptions());
    SweepCoordinator coordinator(coordinatorOptions({shard.port()}));

    // An already-passed deadline: the caller gave up before we even
    // started, so no shard should burn compute on it.
    const uint64_t past = util::monotonicNanos();
    EXPECT_THROW(coordinator.sweep(
                     sweepRequests(model, cluster, SimOptions{}, plans),
                     past),
                 DeadlineExceeded);
    EXPECT_EQ(coordinator.stats().shards[0].requests, 0u);
    EXPECT_EQ(shard.service.stats().requests, 0u);
}

TEST(SweepDeadline, GenerousBudgetDoesNotChangeResults)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    const std::vector<ParallelConfig> plans = tinyPlans(cluster);

    ShardStack shard_a(syntheticServiceOptions());
    ShardStack shard_b(syntheticServiceOptions());
    SweepCoordinator coordinator(
        coordinatorOptions({shard_a.port(), shard_b.port()}));

    const uint64_t deadline =
        util::monotonicNanos() + 60ull * 1000000000ull;
    const std::vector<ExploreResult> results =
        coordinator.sweep(
            sweepRequests(model, cluster, SimOptions{}, plans), deadline);
    ASSERT_EQ(results.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        EXPECT_EQ(results[i].plan, plans[i]);
        SimRequest request;
        request.model = model;
        request.parallel = plans[i];
        request.cluster = cluster;
        EXPECT_EQ(results[i].sim.iteration_seconds,
                  syntheticResult(request).iteration_seconds);
    }
    EXPECT_EQ(coordinator.stats().failovers, 0u);
}

TEST(SweepDeadline, ShardShedsAnExpiredWireBudget)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();

    ShardStack shard(syntheticServiceOptions());

    // deadline_ms: 0 on the wire means "the budget is already gone":
    // the shard must shed with 504 instead of computing.
    wire::v1::SweepRequest sweep_request;
    sweep_request.model = model;
    sweep_request.cluster = cluster;
    sweep_request.plans = tinyPlans(cluster);
    sweep_request.deadline_ms = 0;

    net::HttpClient client("127.0.0.1", shard.port());
    net::HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/sweep",
                            wire::v1::encode(sweep_request).dump(),
                            &response, &error))
        << error;
    EXPECT_EQ(response.status, 504) << response.body;
    json::Value envelope;
    ASSERT_TRUE(json::Value::parse(response.body, &envelope, &error))
        << error;
    ASSERT_NE(envelope.find("error"), nullptr) << response.body;
    EXPECT_EQ(envelope.find("error")->find("code")->asInt64(), 504);
}

// --------------------------------------------------------------- drain

TEST(SweepDrain, MidSweepDrainLosesNothingAndDoubleCountsNothing)
{
    const ClusterSpec cluster = makeCluster(8);
    const ModelConfig model = tinyModel();
    const std::vector<ParallelConfig> plans = tinyPlans(cluster);

    // Slow synthetic shards so the drain lands mid-slice.
    const auto slowOptions = [] {
        SimService::Options options = syntheticServiceOptions();
        options.evaluator = [](const SimRequest &request) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(30));
            return syntheticResult(request);
        };
        return options;
    };
    ShardStack shard_a(slowOptions());
    ShardStack shard_b(slowOptions());
    SweepCoordinator coordinator(
        coordinatorOptions({shard_a.port(), shard_b.port()}));

    std::vector<ExploreResult> results;
    std::atomic<bool> swept{false};
    std::thread sweeper([&] {
        results =
            coordinator.sweep(
                sweepRequests(model, cluster, SimOptions{}, plans));
        swept.store(true);
    });

    // Wait for B's slice to be in flight, then drain it: the drain
    // must finish the in-flight slice (answering the coordinator)
    // before the server stops.  (The swept guard keeps this loop
    // bounded even if the ring hands every group to A.)
    while (shard_b.service.stats().requests == 0 && !swept.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const bool drained = shard_b.frontend.drain(20000);
    sweeper.join();
    EXPECT_TRUE(drained);

    // Zero lost, zero double-counted: every plan answered exactly
    // once, bit-identical to the synthetic evaluator, with no
    // failover (the drained slice completed, it did not fail over).
    ASSERT_EQ(results.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        EXPECT_EQ(results[i].plan, plans[i]);
        SimRequest request;
        request.model = model;
        request.parallel = plans[i];
        request.cluster = cluster;
        EXPECT_EQ(results[i].sim.iteration_seconds,
                  syntheticResult(request).iteration_seconds);
    }
    const SweepCoordinatorStats stats = coordinator.stats();
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(stats.plans, plans.size());
    uint64_t dispatched = 0;
    for (const SweepShardStats &shard : stats.shards)
        dispatched += shard.plans;
    EXPECT_EQ(dispatched, plans.size());
    EXPECT_GT(stats.shards[1].plans, 0u); // B really had work

    // The drained shard is gone now: the next sweep fails over to A
    // and still answers every plan correctly.
    const std::vector<ExploreResult> after =
        coordinator.sweep(
            sweepRequests(model, cluster, SimOptions{}, plans));
    ASSERT_EQ(after.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i)
        EXPECT_EQ(after[i].sim.iteration_seconds,
                  results[i].sim.iteration_seconds);
    EXPECT_GT(coordinator.stats().failovers, 0u);
}

TEST(SweepFailover, EveryShardDeadThrows)
{
    // Grab two ephemeral ports, then close the listeners so both
    // endpoints refuse instantly.
    net::TcpListener a;
    net::TcpListener b;
    std::string error;
    ASSERT_TRUE(a.listen("127.0.0.1", 0, &error)) << error;
    ASSERT_TRUE(b.listen("127.0.0.1", 0, &error)) << error;
    const uint16_t port_a = a.port();
    const uint16_t port_b = b.port();
    a.close();
    b.close();

    SweepCoordinator coordinator(
        coordinatorOptions({port_a, port_b}));
    const std::vector<ParallelConfig> plans =
        tinyPlans(makeCluster(8));
    EXPECT_THROW(coordinator.sweep(sweepRequests(
                     tinyModel(), makeCluster(8), SimOptions{}, plans)),
                 std::runtime_error);
}

} // namespace
} // namespace vtrain
