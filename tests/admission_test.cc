/**
 * @file
 * Tests of multi-tenant admission control (serve/admission.h) and its
 * HTTP integration: token-bucket rate limits under an injected clock,
 * inflight quotas and the global cap at the unit level; then the
 * /v1 surface end to end — X-Api-Key tenant resolution, structured
 * 429s with Retry-After, 401 for unknown keys, deadline_ms budgets
 * shed with 504, exact per-tenant accounting on /statz, and the
 * 8-client overload test asserting no request ever hangs.  Every
 * suite name starts with "Admission" so CI can select the subsystem
 * with `ctest -R '^Admission'` (the TSan and ASan jobs do).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "model/zoo.h"
#include "net/fault_injection.h"
#include "net/http_client.h"
#include "serve/admission.h"
#include "serve/http_frontend.h"
#include "serve/wire.h"
#include "util/json.h"

namespace vtrain {
namespace {

using net::HttpClient;
using net::HttpResponse;

constexpr uint64_t kSecond = 1000000000ull;

/** Controller under an injected clock (no sleeping in rate tests). */
struct FakeClockController {
    explicit FakeClockController(TenantTable tenants,
                                 uint64_t max_global_inflight = 0)
        : now_ns(kSecond), controller(makeOptions(
                               std::move(tenants), max_global_inflight,
                               &now_ns))
    {
    }

    static AdmissionController::Options
    makeOptions(TenantTable tenants, uint64_t max_global_inflight,
                uint64_t *now_ns)
    {
        AdmissionController::Options options;
        options.tenants = std::move(tenants);
        options.max_global_inflight = max_global_inflight;
        options.clock_ns = [now_ns] { return *now_ns; };
        return options;
    }

    uint64_t now_ns;
    AdmissionController controller;
};

TenantConfig
tenant(std::string name, double rate, double burst,
       uint64_t max_inflight)
{
    TenantConfig config;
    config.name = std::move(name);
    config.rate_per_sec = rate;
    config.burst = burst;
    config.max_inflight = max_inflight;
    return config;
}

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

/** A tinyRequest variant distinguished only by batch size. */
SimRequest
requestVariant(int i)
{
    SimRequest r = tinyRequest();
    r.parallel.global_batch_size = 8 * (i + 1);
    return r;
}

std::string
evaluateBody(int variant, int64_t deadline_ms = -1)
{
    json::Value body = wire::v1::encode(requestVariant(variant));
    if (deadline_ms >= 0)
        body.set("deadline_ms", deadline_ms);
    return body.dump();
}

// ----------------------------------------------------- unit level

TEST(AdmissionController, DefaultConfigAdmitsEverything)
{
    FakeClockController fixture({});
    for (int i = 0; i < 100; ++i) {
        AdmissionDecision decision = fixture.controller.admit(nullptr);
        EXPECT_TRUE(decision.admitted);
        EXPECT_EQ(decision.tenant, "default");
        decision.ticket.release();
    }
    const std::vector<AdmissionController::TenantStats> stats =
        fixture.controller.stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].admitted, 100u);
    EXPECT_EQ(stats[0].inflight, 0u);
}

TEST(AdmissionController, TokenBucketShedsAtRateAndRefills)
{
    TenantTable table;
    table.default_tenant = tenant("default", 1.0, 2.0, 0);
    FakeClockController fixture(std::move(table));

    // Burst of 2 admits twice, then sheds with reason "rate" and a
    // Retry-After hint of at least one second.
    for (int i = 0; i < 2; ++i) {
        AdmissionDecision decision = fixture.controller.admit(nullptr);
        ASSERT_TRUE(decision.admitted) << i;
        decision.ticket.release();
    }
    AdmissionDecision shed = fixture.controller.admit(nullptr);
    EXPECT_FALSE(shed.admitted);
    EXPECT_EQ(shed.reason, "rate");
    EXPECT_GE(shed.retry_after_s, 1);

    // One simulated second refills one token: exactly one more admit.
    fixture.now_ns += kSecond;
    AdmissionDecision refilled = fixture.controller.admit(nullptr);
    EXPECT_TRUE(refilled.admitted);
    refilled.ticket.release();
    EXPECT_FALSE(fixture.controller.admit(nullptr).admitted);

    const std::vector<AdmissionController::TenantStats> stats =
        fixture.controller.stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].admitted, 3u);
    EXPECT_EQ(stats[0].shed_rate, 2u);
}

TEST(AdmissionController, InflightQuotaReleasesWithTheTicket)
{
    TenantTable table;
    table.default_tenant = tenant("default", 0.0, 0.0, 2);
    FakeClockController fixture(std::move(table));

    AdmissionDecision first = fixture.controller.admit(nullptr);
    AdmissionDecision second = fixture.controller.admit(nullptr);
    ASSERT_TRUE(first.admitted);
    ASSERT_TRUE(second.admitted);

    AdmissionDecision third = fixture.controller.admit(nullptr);
    EXPECT_FALSE(third.admitted);
    EXPECT_EQ(third.reason, "inflight");

    first.ticket.release();
    AdmissionDecision fourth = fixture.controller.admit(nullptr);
    EXPECT_TRUE(fourth.admitted);

    const std::vector<AdmissionController::TenantStats> stats =
        fixture.controller.stats();
    EXPECT_EQ(stats[0].inflight, 2u);
    EXPECT_EQ(stats[0].shed_inflight, 1u);
}

TEST(AdmissionController, GlobalCapShedsAcrossTenants)
{
    TenantTable table;
    table.by_api_key["key-a"] = tenant("a", 0.0, 0.0, 0);
    table.by_api_key["key-b"] = tenant("b", 0.0, 0.0, 0);
    FakeClockController fixture(std::move(table), 2);

    const std::string key_a = "key-a";
    const std::string key_b = "key-b";
    AdmissionDecision a1 = fixture.controller.admit(&key_a);
    AdmissionDecision b1 = fixture.controller.admit(&key_b);
    ASSERT_TRUE(a1.admitted);
    ASSERT_TRUE(b1.admitted);

    AdmissionDecision b2 = fixture.controller.admit(&key_b);
    EXPECT_FALSE(b2.admitted);
    EXPECT_EQ(b2.reason, "queue");
    EXPECT_EQ(b2.tenant, "b");

    a1.ticket.release();
    EXPECT_TRUE(fixture.controller.admit(&key_b).admitted);
}

TEST(AdmissionController, UnknownKeyIsAnAuthShed)
{
    TenantTable table;
    table.by_api_key["key-a"] = tenant("a", 0.0, 0.0, 0);
    FakeClockController fixture(std::move(table));

    const std::string bogus = "no-such-key";
    const AdmissionDecision decision =
        fixture.controller.admit(&bogus);
    EXPECT_FALSE(decision.admitted);
    EXPECT_TRUE(decision.unknown_key);
    EXPECT_EQ(decision.reason, "auth");

    // Counted on the default tenant's row (there is no tenant to
    // charge), keeping admitted + shed a complete account.
    const std::vector<AdmissionController::TenantStats> stats =
        fixture.controller.stats();
    EXPECT_EQ(stats[0].shed_auth, 1u);
}

TEST(AdmissionController, MovedTicketReleasesExactlyOnce)
{
    TenantTable table;
    table.default_tenant = tenant("default", 0.0, 0.0, 1);
    FakeClockController fixture(std::move(table));

    {
        AdmissionDecision decision = fixture.controller.admit(nullptr);
        ASSERT_TRUE(decision.admitted);
        AdmissionTicket moved = std::move(decision.ticket);
        EXPECT_FALSE(decision.ticket.held());
        EXPECT_TRUE(moved.held());
        EXPECT_FALSE(fixture.controller.admit(nullptr).admitted);
    } // `moved` releases here

    EXPECT_TRUE(fixture.controller.admit(nullptr).admitted);
}

// ------------------------------------------------------ HTTP level

/** Deterministic request -> result mapping; no real simulation. */
SimulationResult
syntheticResult(const SimRequest &request)
{
    SimulationResult result;
    result.iteration_seconds =
        static_cast<double>(request.fingerprint() % 100003) + 1.0;
    return result;
}

/** A started frontend + service on a loopback port. */
struct Loopback {
    explicit Loopback(HttpFrontend::Options frontend_options = {},
                      SimService::Options service_options =
                          syntheticOptions())
        : service(std::move(service_options)),
          frontend(service, std::move(frontend_options))
    {
        std::string error;
        if (!frontend.start(&error))
            ADD_FAILURE() << "frontend.start: " << error;
    }

    static SimService::Options syntheticOptions()
    {
        SimService::Options options;
        options.n_threads = 2;
        options.evaluator = syntheticResult;
        return options;
    }

    HttpClient client(const std::string &api_key = "")
    {
        HttpClient::Options options;
        options.host = "127.0.0.1";
        options.port = frontend.port();
        if (!api_key.empty())
            options.headers.push_back({"X-Api-Key", api_key});
        return HttpClient(std::move(options));
    }

    /** The /statz "tenants" entry for `name` (fails if missing). */
    json::Value tenantStatz(const std::string &name)
    {
        HttpClient c = client();
        HttpResponse response;
        std::string error;
        if (!c.get("/statz", &response, &error)) {
            ADD_FAILURE() << "GET /statz: " << error;
            return json::Value();
        }
        json::Value doc;
        if (!json::Value::parse(response.body, &doc, &error)) {
            ADD_FAILURE() << "parse /statz: " << error;
            return json::Value();
        }
        const json::Value *tenants = doc.find("tenants");
        if (!tenants || !tenants->find(name)) {
            ADD_FAILURE() << "no /statz tenants entry for " << name;
            return json::Value();
        }
        return *tenants->find(name);
    }

    SimService service;
    HttpFrontend frontend;
};

HttpFrontend::Options
twoTenantOptions()
{
    HttpFrontend::Options options;
    options.tenants.default_tenant = tenant("default", 0.0, 0.0, 0);
    options.tenants.by_api_key["key-a"] =
        tenant("a", 1000.0, 2.0, 0); // tiny burst, fast refill
    options.tenants.by_api_key["key-b"] = tenant("b", 0.0, 0.0, 0);
    return options;
}

TEST(AdmissionHttp, UnknownKeyIs401KnownKeyIsServed)
{
    Loopback loopback(twoTenantOptions());

    HttpResponse response;
    std::string error;
    HttpClient good = loopback.client("key-b");
    ASSERT_TRUE(good.post("/v1/evaluate", evaluateBody(0), &response,
                          &error))
        << error;
    EXPECT_EQ(response.status, 200);

    HttpClient bad = loopback.client("who-is-this");
    ASSERT_TRUE(bad.post("/v1/evaluate", evaluateBody(0), &response,
                         &error))
        << error;
    EXPECT_EQ(response.status, 401);

    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error))
        << error;
    ASSERT_NE(doc.find("error"), nullptr);
}

TEST(AdmissionHttp, ShedTenantGets429WithRetryAfterOthersServed)
{
    // Tenant A: burst 2, and a server-side (seeded) fault rule slows
    // /v1/evaluate_batch so A's quota stays busy; tenant B keeps
    // full service and bounded latency throughout.
    net::FaultInjector injector(7);
    net::FaultInjector::Rule slow;
    slow.match = "/v1/evaluate_batch";
    slow.kind = net::FaultKind::InjectLatency;
    slow.latency_ms = 150;
    injector.addRule(slow);

    HttpFrontend::Options options = twoTenantOptions();
    options.tenants.by_api_key["key-a"] =
        tenant("a", 0.001, 2.0, 0); // 2 requests, then ~forever dry
    options.fault_injector = &injector;
    Loopback loopback(options);

    const std::string batch_body =
        "{\"version\":1,\"requests\":[" +
        wire::v1::encode(requestVariant(0)).dump() + "]}";

    // A's first two requests are admitted (slowly); the third sheds
    // with a structured 429 + Retry-After, immediately (no hang, no
    // queueing behind the slow ones).
    HttpClient a = loopback.client("key-a");
    HttpResponse response;
    std::string error;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(a.post("/v1/evaluate_batch", batch_body,
                           &response, &error))
            << error;
        EXPECT_EQ(response.status, 200) << "request " << i;
    }
    ASSERT_TRUE(
        a.post("/v1/evaluate_batch", batch_body, &response, &error))
        << error;
    EXPECT_EQ(response.status, 429);
    EXPECT_GE(net::retryAfterSeconds(response), 1);
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error))
        << error;
    ASSERT_NE(doc.find("error"), nullptr);
    EXPECT_EQ(doc.find("error")->find("code")->asInt64(), 429);

    // B's requests stay fast: the overloaded tenant cannot drag
    // another tenant's tail latency with it.
    HttpClient b = loopback.client("key-b");
    double worst_ms = 0.0;
    for (int i = 0; i < 8; ++i) {
        const auto start = std::chrono::steady_clock::now();
        ASSERT_TRUE(b.post("/v1/evaluate", evaluateBody(i), &response,
                           &error))
            << error;
        EXPECT_EQ(response.status, 200) << "request " << i;
        worst_ms = std::max(
            worst_ms,
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count());
    }
    EXPECT_LT(worst_ms, 2000.0);

    // Exact accounting, per tenant, on /statz.
    const json::Value a_stats = loopback.tenantStatz("a");
    EXPECT_EQ(a_stats.find("admitted")->asInt64(), 2);
    EXPECT_EQ(a_stats.find("shed")->find("rate")->asInt64(), 1);
    const json::Value b_stats = loopback.tenantStatz("b");
    EXPECT_EQ(b_stats.find("admitted")->asInt64(), 8);
}

TEST(AdmissionHttp, EightClientOverloadNeverHangsAndCountersAddUp)
{
    // 8 concurrent clients against a 2-wide pool with a global
    // inflight cap of 1: every request must get exactly one answer
    // (200 or a structured 429; nothing hangs, nothing is dropped),
    // and the admission counters must account for every request
    // sent.  The evaluator sleeps so admitted requests overlap with
    // later admission attempts and the cap actually binds.
    HttpFrontend::Options options;
    options.tenants.default_tenant = tenant("default", 0.0, 0.0, 0);
    options.max_global_inflight = 1;
    SimService::Options service_options;
    service_options.n_threads = 2;
    service_options.evaluator = [](const SimRequest &request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return syntheticResult(request);
    };
    Loopback loopback(options, std::move(service_options));

    constexpr int kClients = 8;
    constexpr int kPerClient = 25;
    std::atomic<int> ok{0};
    std::atomic<int> shed{0};
    std::atomic<int> other{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&loopback, &ok, &shed, &other, c] {
            HttpClient client = loopback.client();
            for (int i = 0; i < kPerClient; ++i) {
                HttpResponse response;
                std::string error;
                if (!client.post("/v1/evaluate",
                                 evaluateBody(c * kPerClient + i),
                                 &response, &error)) {
                    ++other;
                    continue;
                }
                if (response.status == 200) {
                    ++ok;
                } else if (response.status == 429) {
                    // Shed responses must carry the retry hint.
                    if (net::retryAfterSeconds(response) >= 1)
                        ++shed;
                    else
                        ++other;
                } else {
                    ++other;
                }
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    EXPECT_EQ(other.load(), 0);
    EXPECT_EQ(ok.load() + shed.load(), kClients * kPerClient);
    EXPECT_GT(ok.load(), 0);
    EXPECT_GT(shed.load(), 0);

    // /statz accounts for exactly the requests the clients sent:
    // admitted == 200s, shed queue/rate/inflight == 429s.
    const json::Value stats = loopback.tenantStatz("default");
    EXPECT_EQ(stats.find("admitted")->asInt64(), ok.load());
    const json::Value *shed_stats = stats.find("shed");
    ASSERT_NE(shed_stats, nullptr);
    EXPECT_EQ(shed_stats->find("queue")->asInt64() +
                  shed_stats->find("rate")->asInt64() +
                  shed_stats->find("inflight")->asInt64(),
              shed.load());
    EXPECT_EQ(stats.find("inflight")->asInt64(), 0);

    // The same counters are first-class /metricsz families.
    HttpClient client = loopback.client();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.get("/metricsz", &response, &error)) << error;
    EXPECT_NE(response.body.find("vtrain_admission_admitted_total"),
              std::string::npos);
    EXPECT_NE(response.body.find("vtrain_admission_shed_total"),
              std::string::npos);
}

TEST(AdmissionHttp, ZeroDeadlineIs504AndCountedAsExpired)
{
    Loopback loopback(twoTenantOptions());

    // deadline_ms: 0 expires before compute starts: the request is
    // admitted, then shed with 504 instead of burning the pool.
    HttpClient client = loopback.client("key-b");
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate",
                            evaluateBody(0, /*deadline_ms=*/0),
                            &response, &error))
        << error;
    EXPECT_EQ(response.status, 504);
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error))
        << error;
    ASSERT_NE(doc.find("error"), nullptr);
    EXPECT_EQ(doc.find("error")->find("code")->asInt64(), 504);

    const json::Value stats = loopback.tenantStatz("b");
    EXPECT_EQ(stats.find("expired")->asInt64(), 1);
    EXPECT_EQ(stats.find("admitted")->asInt64(), 1);

    // A generous budget answers normally.
    ASSERT_TRUE(client.post("/v1/evaluate",
                            evaluateBody(0, /*deadline_ms=*/60000),
                            &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);

    // A cache hit still answers even with a zero budget: it costs
    // nothing to serve.
    ASSERT_TRUE(client.post("/v1/evaluate",
                            evaluateBody(0, /*deadline_ms=*/0),
                            &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
}

TEST(AdmissionHttp, NegativeWireDeadlineIs400)
{
    Loopback loopback;
    HttpClient client = loopback.client();
    HttpResponse response;
    std::string error;
    json::Value body = wire::v1::encode(requestVariant(0));
    body.set("deadline_ms", static_cast<int64_t>(-5));
    ASSERT_TRUE(client.post("/v1/evaluate", body.dump(), &response,
                            &error))
        << error;
    EXPECT_EQ(response.status, 400);
}

TEST(AdmissionHttp, NonIntegralWireDeadlineIs400NamingTheField)
{
    Loopback loopback;
    HttpClient client = loopback.client();
    wire::v1::SweepRequest sweep;
    sweep.model = tinyRequest().model;
    sweep.cluster = tinyRequest().cluster;
    sweep.plans.push_back(tinyRequest().parallel);
    for (const double bad : {1.5, 1e300, -0.5}) {
        json::Value evaluate = wire::v1::encode(requestVariant(0));
        evaluate.set("deadline_ms", bad);
        json::Value sweep_body = wire::v1::encode(sweep);
        sweep_body.set("deadline_ms", bad);
        for (const auto &[target, body] :
             {std::pair{"/v1/evaluate", evaluate},
              std::pair{"/v1/sweep", sweep_body}}) {
            HttpResponse response;
            std::string error;
            ASSERT_TRUE(client.post(target, body.dump(), &response,
                                    &error))
                << error;
            EXPECT_EQ(response.status, 400) << target << " " << bad;
            EXPECT_NE(response.body.find("deadline_ms"),
                      std::string::npos)
                << target << ": " << response.body;
        }
    }
}

} // namespace
} // namespace vtrain
