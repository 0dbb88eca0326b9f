/**
 * @file
 * Tests of the deterministic fault-injection harness (net/
 * fault_injection.h): rule matching, skip/cap/probability windows and
 * seed determinism at the unit level, then the client- and
 * server-side hooks end to end — forced statuses with Retry-After,
 * refused connects, injected latency and responses dropped after N
 * bytes, all against a real loopback HttpFrontend.  Every suite name
 * starts with "Fault" so CI can select the subsystem with
 * `ctest -R '^Fault'` (the TSan and ASan jobs do).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "model/zoo.h"
#include "net/fault_injection.h"
#include "net/http_client.h"
#include "serve/http_frontend.h"
#include "serve/wire.h"
#include "util/json.h"

namespace vtrain {
namespace {

using net::ClientError;
using net::ClientErrorKind;
using net::FaultInjector;
using net::FaultKind;
using net::HttpClient;
using net::HttpResponse;

SimRequest
tinyRequest()
{
    SimRequest r;
    r.model = makeModel(512, 4, 8, 128, 1024);
    r.parallel.tensor = 2;
    r.parallel.data = 2;
    r.parallel.pipeline = 2;
    r.parallel.micro_batch_size = 1;
    r.parallel.global_batch_size = 8;
    r.cluster = makeCluster(8);
    return r;
}

/** A frontend whose evaluator counts invocations (no simulation). */
struct CountingStack {
    explicit CountingStack(HttpFrontend::Options frontend_options = {})
        : service(serviceOptions()),
          frontend(service, std::move(frontend_options))
    {
        std::string error;
        if (!frontend.start(&error))
            ADD_FAILURE() << "frontend.start: " << error;
    }

    SimService::Options serviceOptions()
    {
        SimService::Options options;
        options.n_threads = 2;
        options.evaluator = [this](const SimRequest &) {
            calls.fetch_add(1);
            return SimulationResult{};
        };
        return options;
    }

    std::atomic<int> calls{0};
    SimService service;
    HttpFrontend frontend;
};

// ------------------------------------------------------- unit level

TEST(FaultInjector, RuleMatchesBySubstringAndMergesEffects)
{
    FaultInjector injector(1);

    FaultInjector::Rule latency;
    latency.match = "/v1/sweep";
    latency.kind = FaultKind::InjectLatency;
    latency.latency_ms = 7;
    injector.addRule(latency);

    FaultInjector::Rule status;
    status.match = "/v1/";
    status.kind = FaultKind::ForceStatus;
    status.status = 429;
    status.retry_after_s = 3;
    injector.addRule(status);

    // Both rules match /v1/sweep; only the status rule matches
    // /v1/evaluate; neither matches /healthz.
    const FaultInjector::Decision sweep =
        injector.decide("127.0.0.1:80/v1/sweep");
    EXPECT_EQ(sweep.latency_ms, 7);
    EXPECT_EQ(sweep.force_status, 429);
    EXPECT_EQ(sweep.retry_after_s, 3);

    const FaultInjector::Decision evaluate =
        injector.decide("127.0.0.1:80/v1/evaluate");
    EXPECT_EQ(evaluate.latency_ms, 0);
    EXPECT_EQ(evaluate.force_status, 429);

    const FaultInjector::Decision health =
        injector.decide("127.0.0.1:80/healthz");
    EXPECT_FALSE(health.any());
}

TEST(FaultInjector, SkipFirstAndMaxHitsWindowTheRule)
{
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.kind = FaultKind::ForceStatus;
    rule.status = 503;
    rule.skip_first = 2; // matches 0,1 pass through
    rule.max_hits = 3;   // matches 2,3,4 fire; 5+ pass through
    injector.addRule(rule);

    int fired = 0;
    for (int i = 0; i < 8; ++i) {
        const FaultInjector::Decision decision = injector.decide("x");
        const bool hit = decision.force_status == 503;
        if (hit)
            ++fired;
        const bool expected = i >= 2 && i < 5;
        EXPECT_EQ(hit, expected) << "match " << i;
    }
    EXPECT_EQ(fired, 3);

    const FaultInjector::Stats stats = injector.stats();
    EXPECT_EQ(stats.decisions, 8u);
    EXPECT_EQ(stats.injected, 3u);
}

TEST(FaultInjector, ProbabilityIsSeedDeterministic)
{
    const auto run = [](uint64_t seed) {
        FaultInjector injector(seed);
        FaultInjector::Rule rule;
        rule.kind = FaultKind::ForceStatus;
        rule.status = 503;
        rule.probability = 0.5;
        injector.addRule(rule);
        std::vector<bool> hits;
        for (int i = 0; i < 64; ++i)
            hits.push_back(injector.decide("x").force_status == 503);
        return hits;
    };
    // Same seed -> the same hit sequence, every time; and a fair coin
    // over 64 draws fires at least once each way.
    const std::vector<bool> a = run(42);
    EXPECT_EQ(a, run(42));
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjector, ClearRemovesEveryRule)
{
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.kind = FaultKind::RefuseConnect;
    injector.addRule(rule);
    EXPECT_TRUE(injector.decide("x").refuse_connect);
    injector.clear();
    EXPECT_FALSE(injector.decide("x").any());
}

// ------------------------------------------------- client-side hooks

TEST(FaultClient, RefuseConnectIsATypedErrorWithoutDialing)
{
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.kind = FaultKind::RefuseConnect;
    injector.addRule(rule);

    // Port 9 on loopback: nothing listens there, but the injector
    // must refuse before any dial happens anyway.
    HttpClient::Options options;
    options.host = "127.0.0.1";
    options.port = 9;
    options.fault_injector = &injector;
    HttpClient client(std::move(options));

    HttpResponse response;
    ClientError error;
    EXPECT_FALSE(
        client.request("GET", "/healthz", "", &response, &error));
    EXPECT_EQ(error.kind, ClientErrorKind::ConnectRefused);
    EXPECT_EQ(client.connectsMade(), 0u);
}

TEST(FaultClient, ForceStatusCarriesRetryAfter)
{
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.kind = FaultKind::ForceStatus;
    rule.status = 503;
    rule.retry_after_s = 7;
    injector.addRule(rule);

    HttpClient::Options options;
    options.host = "127.0.0.1";
    options.port = 9;
    options.fault_injector = &injector;
    HttpClient client(std::move(options));

    HttpResponse response;
    ClientError error;
    ASSERT_TRUE(
        client.request("GET", "/healthz", "", &response, &error));
    EXPECT_EQ(response.status, 503);
    EXPECT_EQ(net::retryAfterSeconds(response), 7);
}

TEST(FaultClient, RuleKeyTargetsOneBackend)
{
    // One rule keyed on shard B's host:port refuses B and leaves A
    // alone — the shape the sweep failover tests rely on.
    CountingStack stack;
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.match = "127.0.0.1:9<";
    rule.kind = FaultKind::RefuseConnect;
    injector.addRule(rule);

    HttpClient::Options a;
    a.host = "127.0.0.1";
    a.port = stack.frontend.port();
    a.fault_injector = &injector;
    HttpClient alive(std::move(a));

    HttpClient::Options b;
    b.host = "127.0.0.1";
    b.port = 9;
    b.fault_injector = &injector;
    HttpClient refused(std::move(b));

    HttpResponse response;
    ClientError error;
    EXPECT_TRUE(
        alive.request("GET", "/healthz", "", &response, &error));
    EXPECT_EQ(response.status, 200);
    EXPECT_FALSE(
        refused.request("GET", "/healthz", "", &response, &error));
    EXPECT_EQ(error.kind, ClientErrorKind::ConnectRefused);
}

// ------------------------------------------------- server-side hooks

TEST(FaultServer, ForceStatusShortCircuitsTheHandler)
{
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.match = "/v1/evaluate";
    rule.kind = FaultKind::ForceStatus;
    rule.status = 503;
    rule.retry_after_s = 2;
    injector.addRule(rule);

    HttpFrontend::Options options;
    options.fault_injector = &injector;
    CountingStack stack(std::move(options));

    HttpClient client("127.0.0.1", stack.frontend.port());
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate",
                            wire::v1::encode(tinyRequest()).dump(),
                            &response, &error))
        << error;
    EXPECT_EQ(response.status, 503);
    EXPECT_EQ(net::retryAfterSeconds(response), 2);
    EXPECT_EQ(stack.calls.load(), 0) << "handler must not run";

    // The error body is the shared structured envelope.
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error))
        << error;
    ASSERT_NE(doc.find("error"), nullptr);
    EXPECT_EQ(doc.find("error")->find("code")->asInt64(), 503);

    // Other routes are untouched.
    ASSERT_TRUE(client.get("/healthz", &response, &error)) << error;
    EXPECT_EQ(response.status, 200);
}

TEST(FaultServer, InjectLatencyDelaysTheResponse)
{
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.match = "/healthz";
    rule.kind = FaultKind::InjectLatency;
    rule.latency_ms = 80;
    injector.addRule(rule);

    HttpFrontend::Options options;
    options.fault_injector = &injector;
    CountingStack stack(std::move(options));

    HttpClient client("127.0.0.1", stack.frontend.port());
    HttpResponse response;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.get("/healthz", &response, &error)) << error;
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                   start);
    EXPECT_EQ(response.status, 200);
    EXPECT_GE(elapsed.count(), 80);
}

TEST(FaultServer, DropAfterBytesKillsTheConnectionMidResponse)
{
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.match = "/healthz";
    rule.kind = FaultKind::DropAfterBytes;
    rule.drop_after_bytes = 12; // inside the status line
    injector.addRule(rule);

    HttpFrontend::Options options;
    options.fault_injector = &injector;
    CountingStack stack(std::move(options));

    HttpClient::Options client_options;
    client_options.host = "127.0.0.1";
    client_options.port = stack.frontend.port();
    HttpClient client(std::move(client_options));

    HttpResponse response;
    ClientError error;
    EXPECT_FALSE(
        client.request("GET", "/healthz", "", &response, &error));
    EXPECT_EQ(error.kind, ClientErrorKind::Closed);

    injector.clear();
    std::string plain_error;
    ASSERT_TRUE(client.get("/healthz", &response, &plain_error))
        << plain_error;
    EXPECT_EQ(response.status, 200);
}

TEST(FaultServer, DropWithZeroBytesAnswersNothing)
{
    FaultInjector injector(1);
    FaultInjector::Rule rule;
    rule.match = "/healthz";
    rule.kind = FaultKind::DropAfterBytes;
    rule.drop_after_bytes = 0;
    injector.addRule(rule);

    HttpFrontend::Options options;
    options.fault_injector = &injector;
    CountingStack stack(std::move(options));

    HttpClient::Options client_options;
    client_options.host = "127.0.0.1";
    client_options.port = stack.frontend.port();
    HttpClient client(std::move(client_options));

    HttpResponse response;
    ClientError error;
    EXPECT_FALSE(
        client.request("GET", "/healthz", "", &response, &error));
    EXPECT_EQ(error.kind, ClientErrorKind::Closed);
}

} // namespace
} // namespace vtrain
