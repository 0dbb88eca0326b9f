/**
 * @file
 * End-to-end tests of the HTTP frontend: a real HttpFrontend on an
 * ephemeral loopback port, driven by HttpClient (and raw sockets for
 * the pipelining and parse-error cases).  Covers the acceptance path
 * -- POST a real SimRequest, match a direct SimService::evaluate,
 * observe the repeat answered from the cache via /statz -- plus the
 * error surface (400/404/405/413/422) and concurrent keep-alive
 * connections.  Every suite name starts with "Http" so CI can select
 * the subsystem with `ctest -R '^Http'` (the TSan job does).
 */
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "model/zoo.h"
#include "net/http_client.h"
#include "serve/http_frontend.h"
#include "serve/wire.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace vtrain {
namespace {

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

/** @return a tinyRequest variant distinguished only by batch size. */
SimRequest
requestVariant(int i)
{
    SimRequest r = tinyRequest();
    r.parallel.global_batch_size = 8 * (i + 1);
    return r;
}

/** The versioned request payload as wire text (serve/wire.h). */
std::string
toJson(const SimRequest &request)
{
    return wire::v1::encode(request).dump();
}

/** The versioned request payload as a document node. */
json::Value
toJsonValue(const SimRequest &request)
{
    return wire::v1::encode(request);
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

/** A started frontend + service + client, torn down in order. */
struct Loopback {
    explicit Loopback(SimService::Options service_options = {},
                      HttpFrontend::Options frontend_options = {})
        : service(std::move(service_options)),
          frontend(service, std::move(frontend_options))
    {
        std::string error;
        if (!frontend.start(&error))
            ADD_FAILURE() << "frontend.start: " << error;
    }

    HttpClient client()
    {
        return HttpClient("127.0.0.1", frontend.port());
    }

    /** Fetches and parses /statz. */
    json::Value statz()
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
        return doc;
    }

    SimService service;
    HttpFrontend frontend;
};

int64_t
statInt(const json::Value &doc, const char *section, const char *key)
{
    const json::Value *s = doc.find(section);
    if (!s || !s->find(key)) {
        ADD_FAILURE() << "missing stat " << section << "." << key;
        return -1;
    }
    return s->find(key)->asInt64();
}

// ------------------------------------------------- acceptance path

TEST(HttpFrontendTest, EvaluateMatchesDirectCallAndRepeatHitsCache)
{
    // The real simulator, as production would run it.
    Loopback loop;
    HttpClient client = loop.client();

    const SimRequest request = tinyRequest();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(request),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;

    SimulationResult over_http;
    ASSERT_TRUE(
        wire::v1::decode(response.body, &over_http, &error))
        << error;
    // The direct call answers from the cache the POST populated, and
    // the JSON codec round-trips doubles bit-for-bit, so the results
    // must be identical in every field.
    const SimulationResult direct = loop.service.evaluate(request);
    EXPECT_EQ(over_http, direct);
    EXPECT_GT(over_http.iteration_seconds, 0.0);

    // A second identical POST is a cache hit: computed stays 1.
    HttpResponse repeat;
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(request), &repeat,
                            &error))
        << error;
    ASSERT_EQ(repeat.status, 200);
    EXPECT_EQ(repeat.body, response.body);

    const json::Value statz = loop.statz();
    EXPECT_EQ(statInt(statz, "service", "computed"), 1);
    EXPECT_EQ(statInt(statz, "service", "requests"), 3);
    const json::Value *cache = statz.find("service")->find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_GE(cache->find("hits")->asInt64(), 2);
    EXPECT_EQ(cache->find("entries")->asInt64(), 1);
}

TEST(HttpFrontendTest, StatzExposesTemplateCacheCounters)
{
    Loopback loop; // the real simulator: templates actually capture
    HttpClient client = loop.client();

    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(tinyRequest()),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;

    const json::Value statz = loop.statz();
    const json::Value *service = statz.find("service");
    ASSERT_NE(service, nullptr);
    const json::Value *templates = service->find("template_cache");
    ASSERT_NE(templates, nullptr);
    for (const char *key : {"hits", "misses", "insertions", "updates",
                            "evictions", "entries", "bytes"}) {
        ASSERT_NE(templates->find(key), nullptr) << key;
        EXPECT_GE(templates->find(key)->asInt64(), 0) << key;
    }
    EXPECT_GE(templates->find("insertions")->asInt64(), 1);
    EXPECT_GE(templates->find("misses")->asInt64(), 1);
    ASSERT_NE(templates->find("hit_rate"), nullptr);
}

TEST(HttpFrontendTest, StatzExposesEngineCounters)
{
    Loopback loop; // the real simulator: engine modes actually run
    HttpClient client = loop.client();

    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(tinyRequest()),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;

    // Two structurally identical fast-mode points: the batch handler
    // routes them through one batched replay.
    json::Value requests = json::Value::array();
    requests.push(toJsonValue(requestVariant(1)));
    requests.push(toJsonValue(requestVariant(2)));
    json::Value body = json::Value::object();
    body.set("version", int64_t{1});
    body.set("requests", std::move(requests));
    ASSERT_TRUE(client.post("/v1/evaluate_batch", body.dump(),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;

    // A third, distinct point that reuses the batch's captured
    // topologies: its two capped runs go through schedule replay.
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(requestVariant(3)),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;

    const json::Value statz = loop.statz();
    const json::Value *service = statz.find("service");
    ASSERT_NE(service, nullptr);
    const json::Value *engine = service->find("engine");
    ASSERT_NE(engine, nullptr);
    for (const char *key :
         {"replay_runs", "queue_runs", "batched_points"}) {
        ASSERT_NE(engine->find(key), nullptr) << key;
        EXPECT_GE(engine->find(key)->asInt64(), 0) << key;
    }
    // The first evaluate captured its template cold (queue engine);
    // the batch simulated 2 points x 2 micro-batch counts in batched
    // passes; the last evaluate re-timed the batch's templates via
    // two schedule replays.
    EXPECT_EQ(engine->find("queue_runs")->asInt64(), 1);
    EXPECT_EQ(engine->find("batched_points")->asInt64(), 4);
    EXPECT_EQ(engine->find("replay_runs")->asInt64(), 2);
}

TEST(HttpFrontendTest, BatchPreservesOrderAndDedups)
{
    std::atomic<int> computed{0};
    SimService::Options options = syntheticServiceOptions();
    options.evaluator = [&computed](const SimRequest &request) {
        computed.fetch_add(1);
        return syntheticResult(request);
    };
    Loopback loop(std::move(options));
    HttpClient client = loop.client();

    const SimRequest a = requestVariant(0);
    const SimRequest b = requestVariant(1);
    json::Value requests = json::Value::array();
    for (const SimRequest *r : {&a, &b, &a})
        requests.push(toJsonValue(*r));
    json::Value body = json::Value::object();
    body.set("version", int64_t{1});
    body.set("requests", std::move(requests));

    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate_batch", body.dump(),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;

    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error))
        << error;
    const json::Value *results = doc.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->items().size(), 3u);

    std::vector<SimulationResult> parsed(3);
    for (size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(wire::v1::decode(results->items()[i], &parsed[i],
                                     &error))
            << error;
    EXPECT_EQ(parsed[0], syntheticResult(a));
    EXPECT_EQ(parsed[1], syntheticResult(b));
    EXPECT_EQ(parsed[2], parsed[0]);
    // The duplicate was answered from the cache, not recomputed.
    EXPECT_EQ(computed.load(), 2);
}

TEST(HttpFrontendTest, OneThreadFrontendAnswersBatchAndShardSweep)
{
    // The service pool's only worker runs the handler, so the batch
    // and the shard-side sweep must compute on that worker: a handler
    // that waited on units queued behind itself would never answer.
    // A bounded client deadline turns that hang into a failure.
    auto loop = std::make_unique<Loopback>(syntheticServiceOptions(1));
    ASSERT_EQ(loop->service.numThreads(), 1u);
    HttpClient::Options client_options;
    client_options.port = loop->frontend.port();
    client_options.request_timeout_ms = 10000;
    HttpClient client(client_options);

    std::vector<SimRequest> batch;
    json::Value requests = json::Value::array();
    for (int i = 0; i < 4; ++i) {
        batch.push_back(requestVariant(i));
        requests.push(toJsonValue(batch.back()));
    }
    json::Value body = json::Value::object();
    body.set("version", int64_t{1});
    body.set("requests", std::move(requests));

    wire::v1::SweepRequest sweep_request;
    sweep_request.model = batch[0].model;
    sweep_request.cluster = batch[0].cluster;
    for (int i = 4; i < 8; ++i)
        sweep_request.plans.push_back(requestVariant(i).parallel);

    HttpResponse batch_response, sweep_response;
    std::string error;
    const bool answered =
        client.post("/v1/evaluate_batch", body.dump(), &batch_response,
                    &error) &&
        client.post("/v1/sweep", wire::v1::encode(sweep_request).dump(),
                    &sweep_response, &error);
    if (!answered) {
        // The only worker waits on its own queue.  Leak the stack:
        // its destructor would join that worker forever.
        ADD_FAILURE() << "no answer from a one-thread frontend: "
                      << error;
        (void)loop.release();
        return;
    }

    ASSERT_EQ(batch_response.status, 200) << batch_response.body;
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(batch_response.body, &doc, &error))
        << error;
    const json::Value *results = doc.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->items().size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        SimulationResult parsed;
        ASSERT_TRUE(
            wire::v1::decode(results->items()[i], &parsed, &error))
            << error;
        EXPECT_EQ(parsed, syntheticResult(batch[i]));
    }

    ASSERT_EQ(sweep_response.status, 200) << sweep_response.body;
    std::vector<ExploreResult> swept;
    ASSERT_TRUE(wire::v1::decodeSweepResponse(sweep_response.body,
                                              &swept, &error))
        << error;
    ASSERT_EQ(swept.size(), sweep_request.plans.size());
    for (size_t i = 0; i < swept.size(); ++i) {
        EXPECT_EQ(swept[i].plan, sweep_request.plans[i]);
        EXPECT_EQ(swept[i].sim, syntheticResult(requestVariant(
                                    static_cast<int>(i) + 4)));
    }
}

TEST(HttpFrontendTest, BatchRejectsBadEnvelopesAndAllowsEmpty)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    // A malformed envelope must produce a clean 400, never tear down
    // the server (1.5 would panic a naive asInt64 on the version).
    for (const char *body :
         {"{\"version\": 1.5, \"requests\": []}",
          "{\"version\": 2, \"requests\": []}",
          "{\"requests\": []}",
          "{\"version\": 1}",
          "{\"version\": 1, \"requests\": {}}",
          "{\"version\": 1, \"requests\": [42]}"}) {
        ASSERT_TRUE(client.post("/v1/evaluate_batch", body,
                                &response, &error))
            << error;
        EXPECT_EQ(response.status, 400) << body;
    }

    ASSERT_TRUE(client.post("/v1/evaluate_batch",
                            "{\"version\": 1, \"requests\": []}",
                            &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error));
    EXPECT_TRUE(doc.find("results")->items().empty());
}

// ------------------------------------------------------ error surface

TEST(HttpFrontendTest, MalformedJsonBodyIs400WithStructuredError)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();

    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate", "{not json",
                            &response, &error))
        << error;
    EXPECT_EQ(response.status, 400);

    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error))
        << error;
    const json::Value *err = doc.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("code")->asInt64(), 400);
    EXPECT_FALSE(err->find("message")->asString().empty());
}

TEST(HttpFrontendTest, MissingWireFieldIs400)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    // Well-formed JSON that is not a request payload.
    ASSERT_TRUE(client.post("/v1/evaluate", "{\"version\": 1}",
                            &response, &error))
        << error;
    EXPECT_EQ(response.status, 400);
}

TEST(HttpFrontendTest, UnknownRouteIs404)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.get("/v2/evaluate", &response, &error))
        << error;
    EXPECT_EQ(response.status, 404);
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error));
    EXPECT_EQ(doc.find("error")->find("code")->asInt64(), 404);
}

TEST(HttpFrontendTest, WrongMethodIs405)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.get("/v1/evaluate", &response, &error))
        << error;
    EXPECT_EQ(response.status, 405);
    ASSERT_TRUE(client.post("/healthz", "{}", &response, &error))
        << error;
    EXPECT_EQ(response.status, 405);
}

TEST(HttpFrontendTest, InvalidPlanIs422)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();

    SimRequest bad = tinyRequest();
    bad.parallel.tensor = 16; // 16*2*2 GPUs > the 8 in the cluster
    ASSERT_FALSE(bad.valid());

    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(bad), &response,
                            &error))
        << error;
    EXPECT_EQ(response.status, 422);
}

TEST(HttpFrontendTest, OversizedBodyIs413)
{
    HttpFrontend::Options options;
    options.limits.max_body_bytes = 256;
    Loopback loop(syntheticServiceOptions(), std::move(options));
    HttpClient client = loop.client();

    HttpResponse response;
    std::string error;
    const std::string big(1024, 'x');
    ASSERT_TRUE(client.post("/v1/evaluate", big, &response, &error))
        << error;
    EXPECT_EQ(response.status, 413);
}

// ----------------------------------------- connections and keep-alive

TEST(HttpClientTest, KeepAliveReusesOneConnection)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();

    for (int i = 0; i < 5; ++i) {
        HttpResponse response;
        std::string error;
        ASSERT_TRUE(client.get("/healthz", &response, &error))
            << error;
        ASSERT_EQ(response.status, 200);
    }
    EXPECT_EQ(client.connectsMade(), 1u);

    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.get("/statz", &response, &error)) << error;
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error));
    EXPECT_EQ(statInt(doc, "http", "connections_accepted"), 1);
    EXPECT_EQ(statInt(doc, "http", "requests"), 6);
}

TEST(HttpFrontendTest, PipelinedRequestsAnswerInOrder)
{
    Loopback loop(syntheticServiceOptions());

    std::string error;
    net::Socket sock =
        net::connectTcp("127.0.0.1", loop.frontend.port(), &error);
    ASSERT_TRUE(sock.valid()) << error;
    sock.setTimeouts(10000);

    // Two requests in one write: the server must answer both, in
    // order, on the one connection.
    net::HttpRequest healthz;
    healthz.method = "GET";
    healthz.target = "/healthz";
    net::HttpRequest statz;
    statz.method = "GET";
    statz.target = "/statz";
    const std::string wire =
        net::serializeRequest(healthz) + net::serializeRequest(statz);
    ASSERT_TRUE(sock.sendAll(wire.data(), wire.size()));

    net::HttpParser parser;
    std::string buffer;
    std::vector<HttpResponse> responses;
    char buf[4096];
    while (responses.size() < 2) {
        HttpResponse response;
        const auto status = parser.parse(&buffer, &response);
        if (status == net::HttpParser::Status::Complete) {
            responses.push_back(std::move(response));
            continue;
        }
        ASSERT_EQ(status, net::HttpParser::Status::NeedMore);
        size_t n = 0;
        ASSERT_EQ(sock.recvSome(buf, sizeof(buf), &n),
                  net::IoStatus::Ok);
        buffer.append(buf, n);
    }
    EXPECT_EQ(responses[0].status, 200);
    EXPECT_EQ(responses[1].status, 200);
    // First response answers the first request (healthz), second the
    // second (statz).
    EXPECT_NE(responses[0].body.find("\"status\""),
              std::string::npos);
    EXPECT_NE(responses[1].body.find("\"service\""),
              std::string::npos);
}

TEST(HttpFrontendTest, ParseErrorAnswers400AndCloses)
{
    Loopback loop(syntheticServiceOptions());

    std::string error;
    net::Socket sock =
        net::connectTcp("127.0.0.1", loop.frontend.port(), &error);
    ASSERT_TRUE(sock.valid()) << error;
    sock.setTimeouts(10000);
    const std::string garbage = "GARBAGE\r\n\r\n";
    ASSERT_TRUE(sock.sendAll(garbage.data(), garbage.size()));

    net::HttpParser parser;
    std::string buffer;
    HttpResponse response;
    char buf[4096];
    for (;;) {
        const auto status = parser.parse(&buffer, &response);
        if (status == net::HttpParser::Status::Complete)
            break;
        ASSERT_EQ(status, net::HttpParser::Status::NeedMore);
        size_t n = 0;
        ASSERT_EQ(sock.recvSome(buf, sizeof(buf), &n),
                  net::IoStatus::Ok);
        buffer.append(buf, n);
    }
    EXPECT_EQ(response.status, 400);
    EXPECT_TRUE(response.close);
    // The server closes after a parse error.
    size_t n = 0;
    EXPECT_EQ(sock.recvSome(buf, sizeof(buf), &n), net::IoStatus::Eof);

    const json::Value statz = loop.statz();
    EXPECT_EQ(statInt(statz, "http", "parse_errors"), 1);
}

TEST(HttpFrontendTest, ClientAbortMidComputeIsDropped)
{
    // A peer that resets its connection while its request is still
    // computing must be dropped (its EPOLLHUP cannot be masked, so
    // keeping the connection would spin the event loop) and its
    // completion discarded, leaving the server fully functional.
    SimService::Options options = syntheticServiceOptions();
    options.evaluator = [](const SimRequest &request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        return syntheticResult(request);
    };
    Loopback loop(std::move(options));

    {
        std::string error;
        net::Socket sock = net::connectTcp(
            "127.0.0.1", loop.frontend.port(), &error);
        ASSERT_TRUE(sock.valid()) << error;
        net::HttpRequest req;
        req.method = "POST";
        req.target = "/v1/evaluate";
        req.body = toJson(requestVariant(0));
        const std::string wire = net::serializeRequest(req);
        ASSERT_TRUE(sock.sendAll(wire.data(), wire.size()));
        // Give the loop a beat to dispatch, then reset the
        // connection (SO_LINGER 0 turns close() into RST).
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        linger lg{};
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &lg,
                     sizeof(lg));
    }

    // Outlive the handler; the discarded completion must not wedge
    // or crash anything.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.get("/healthz", &response, &error)) << error;
    EXPECT_EQ(response.status, 200);
    const json::Value statz = loop.statz();
    // Three connections ever: the aborted one, the healthz client
    // (still open, keep-alive), and the statz fetch.  The aborted one
    // must be gone.
    EXPECT_EQ(statInt(statz, "http", "connections_accepted"), 3);
    EXPECT_EQ(statInt(statz, "http", "connections_open"), 2);
}

TEST(HttpFrontendTest, ManyConcurrentConnections)
{
    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 20;
    Loopback loop(syntheticServiceOptions(4));

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&loop, &failures, c] {
            HttpClient client("127.0.0.1", loop.frontend.port());
            for (int i = 0; i < kRequestsPerClient; ++i) {
                const SimRequest request =
                    requestVariant(c * kRequestsPerClient + i);
                HttpResponse response;
                std::string error;
                if (!client.post("/v1/evaluate", toJson(request),
                                 &response, &error) ||
                    response.status != 200) {
                    failures.fetch_add(1);
                    continue;
                }
                SimulationResult result;
                if (!wire::v1::decode(response.body, &result) ||
                    result != syntheticResult(request))
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    const json::Value statz = loop.statz();
    EXPECT_EQ(statInt(statz, "service", "requests"),
              kClients * kRequestsPerClient);
    EXPECT_EQ(statInt(statz, "http", "connections_accepted"),
              kClients + 1); // +1: this statz fetch
    EXPECT_GE(statInt(statz, "http", "responses"),
              kClients * kRequestsPerClient);
}

// ------------------------------------------------------------ lifecycle

TEST(HttpFrontendTest, HealthzReportsOk)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.get("/healthz", &response, &error)) << error;
    EXPECT_EQ(response.status, 200);
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error));
    EXPECT_EQ(doc.find("status")->asString(), "ok");
}

TEST(HttpFrontendTest, HealthzReportsUptimeAndBuild)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.get("/healthz", &response, &error)) << error;
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error));
    const json::Value *uptime = doc.find("uptime_s");
    ASSERT_NE(uptime, nullptr);
    ASSERT_TRUE(uptime->isNumber());
    EXPECT_GT(uptime->asNumber(), 0.0);
    for (const char *key : {"version", "git_describe", "build_type"}) {
        const json::Value *v = doc.find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_TRUE(v->isString()) << key;
        EXPECT_FALSE(v->asString().empty()) << key;
    }
}

TEST(HttpFrontendTest, MetricszServesPrometheusExposition)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();

    // Drive one evaluate so latency histograms have data.
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(tinyRequest()),
                            &response, &error))
        << error;
    ASSERT_EQ(response.status, 200);

    ASSERT_TRUE(client.get("/metricsz", &response, &error)) << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.content_type.find("text/plain"),
              std::string::npos);
    const std::string &text = response.body;

    // The acceptance bar: at least 12 distinct families spanning the
    // http, service, simulator and pool tiers.
    size_t families = 0;
    for (size_t pos = text.find("# TYPE ");
         pos != std::string::npos;
         pos = text.find("# TYPE ", pos + 1))
        ++families;
    EXPECT_GE(families, 12u) << text;
    for (const char *name :
         {"vtrain_http_requests_total", "vtrain_http_request_seconds",
          "vtrain_http_connections_open",
          "vtrain_service_evaluate_seconds",
          "vtrain_service_batch_group_size",
          "vtrain_sim_phase_seconds", "vtrain_pool_queue_depth",
          "vtrain_pool_task_wait_seconds",
          "vtrain_pool_task_run_seconds", "vtrain_cache_entries"})
        EXPECT_NE(text.find(std::string("# TYPE ") + name),
                  std::string::npos)
            << name;

    // Histogram exposition shape: cumulative buckets ending in +Inf,
    // plus _sum and _count.
    EXPECT_NE(text.find("vtrain_http_request_seconds_bucket{"),
              std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(text.find("vtrain_http_request_seconds_sum"),
              std::string::npos);
    EXPECT_NE(text.find("vtrain_http_request_seconds_count"),
              std::string::npos);
    // The evaluate above must show up in the route-labeled series.
    EXPECT_NE(text.find("route=\"/v1/evaluate\""), std::string::npos);
}

TEST(HttpFrontendTest, StatzHasLatencyPercentiles)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(tinyRequest()),
                            &response, &error))
        << error;
    const json::Value doc = loop.statz();
    const json::Value *latency = doc.find("latency");
    ASSERT_NE(latency, nullptr);
    ASSERT_TRUE(latency->isObject());
    // At least one series must carry the full percentile block.
    ASSERT_FALSE(latency->members().empty());
    const json::Value &block = latency->members().front().second;
    for (const char *key : {"count", "mean", "p50", "p90", "p99", "max"})
        EXPECT_NE(block.find(key), nullptr) << key;
}

TEST(HttpFrontendTest, TracezReturnsChromeTraceJson)
{
    Loopback loop(syntheticServiceOptions());
    HttpClient client = loop.client();
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(tinyRequest()),
                            &response, &error))
        << error;
    ASSERT_TRUE(client.get("/tracez?limit=4", &response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error))
        << error;
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // The evaluate above went through the global ring, so at least
    // its root span and process metadata are present.
    EXPECT_GE(events->items().size(), 2u);
    bool found = false;
    for (const json::Value &event : events->items()) {
        const json::Value *name = event.find("name");
        if (name && name->isString() &&
            name->asString() == "POST /v1/evaluate")
            found = true;
    }
    EXPECT_TRUE(found) << response.body;

    // Method gate still applies.
    ASSERT_TRUE(client.post("/tracez", "{}", &response, &error));
    EXPECT_EQ(response.status, 405);
}

TEST(HttpFrontendTest, EvaluateTraceFlagReturnsPhases)
{
    // Real simulator (no synthetic evaluator) so sim.* phase spans
    // fire; a fresh service guarantees the request actually computes.
    SimService::Options options;
    options.n_threads = 2;
    Loopback loop(std::move(options));
    HttpClient client = loop.client();

    json::Value payload;
    std::string error;
    ASSERT_TRUE(
        json::Value::parse(toJson(tinyRequest()), &payload, &error));
    payload.set("trace", true);

    HttpResponse response;
    ASSERT_TRUE(client.post("/v1/evaluate", payload.dump(), &response,
                            &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error));
    const json::Value *trace = doc.find("trace");
    ASSERT_NE(trace, nullptr) << response.body;
    EXPECT_EQ(trace->find("label")->asString(), "POST /v1/evaluate");
    EXPECT_GT(trace->find("total_us")->asNumber(), 0.0);
    const json::Value *spans = trace->find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->isArray());
    bool saw_sim_phase = false;
    for (const json::Value &span : spans->items()) {
        const std::string &name = span.find("name")->asString();
        if (name.rfind("sim.", 0) == 0)
            saw_sim_phase = true;
    }
    EXPECT_TRUE(saw_sim_phase) << response.body;

    // Without the flag the response carries no trace member.
    ASSERT_TRUE(client.post("/v1/evaluate", toJson(tinyRequest()),
                            &response, &error))
        << error;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error));
    EXPECT_EQ(doc.find("trace"), nullptr);
}

TEST(HttpFrontendTest, StopReleasesThePort)
{
    SimService service(syntheticServiceOptions());
    HttpFrontend frontend(service);
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;
    const uint16_t port = frontend.port();
    EXPECT_TRUE(frontend.running());

    frontend.stop();
    EXPECT_FALSE(frontend.running());
    net::Socket sock = net::connectTcp("127.0.0.1", port, &error);
    EXPECT_FALSE(sock.valid());
}

TEST(HttpFrontendTest, StopWithConnectedClientIsClean)
{
    SimService service(syntheticServiceOptions());
    HttpFrontend frontend(service);
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;

    HttpClient client("127.0.0.1", frontend.port());
    HttpResponse response;
    ASSERT_TRUE(client.get("/healthz", &response, &error)) << error;

    frontend.stop(); // must drain cleanly with the client still open
    EXPECT_FALSE(client.get("/healthz", &response, &error));
}

TEST(HttpFrontendTest, TwoFrontendsShareOneService)
{
    SimService service(syntheticServiceOptions());
    HttpFrontend a(service);
    HttpFrontend b(service);
    std::string error;
    ASSERT_TRUE(a.start(&error)) << error;
    ASSERT_TRUE(b.start(&error)) << error;
    ASSERT_NE(a.port(), b.port());

    const SimRequest request = tinyRequest();
    HttpClient ca("127.0.0.1", a.port());
    HttpClient cb("127.0.0.1", b.port());
    HttpResponse ra, rb;
    ASSERT_TRUE(
        ca.post("/v1/evaluate", toJson(request), &ra, &error))
        << error;
    ASSERT_TRUE(
        cb.post("/v1/evaluate", toJson(request), &rb, &error))
        << error;
    EXPECT_EQ(ra.status, 200);
    EXPECT_EQ(rb.status, 200);
    EXPECT_EQ(ra.body, rb.body);
    // One cache: the second frontend's request was a hit.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.computed, 1u);
    EXPECT_GE(stats.cache.hits, 1u);
}

// --------------------------------------------------- graceful drain

TEST(HttpDrain, DrainWithNothingInflightStopsImmediately)
{
    SimService service(syntheticServiceOptions());
    HttpFrontend frontend(service);
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;
    const uint16_t port = frontend.port();

    EXPECT_TRUE(frontend.drain(/*deadline_ms=*/1000));
    EXPECT_FALSE(frontend.running());
    net::Socket sock = net::connectTcp("127.0.0.1", port, &error);
    EXPECT_FALSE(sock.valid());
}

TEST(HttpDrain, DrainFinishesInflightWorkAndAnswersIt)
{
    // An evaluator slow enough that drain() demonstrably starts while
    // the request is computing; the in-flight answer must still be
    // delivered before the listener goes away.
    SimService::Options service_options;
    service_options.n_threads = 2;
    service_options.evaluator = [](const SimRequest &request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return syntheticResult(request);
    };
    SimService service(std::move(service_options));
    HttpFrontend frontend(service);
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;

    // A second connection, opened before the drain begins, watches
    // /healthz flip to draining while the first one computes.
    HttpClient watcher("127.0.0.1", frontend.port());
    HttpResponse health;
    ASSERT_TRUE(watcher.get("/healthz", &health, &error)) << error;
    EXPECT_EQ(health.status, 200);

    std::atomic<bool> answered{false};
    HttpResponse inflight_response;
    std::string inflight_error;
    bool inflight_ok = false;
    std::thread requester([&] {
        HttpClient client("127.0.0.1", frontend.port());
        inflight_ok = client.post("/v1/evaluate", toJson(tinyRequest()),
                                  &inflight_response, &inflight_error);
        answered.store(true);
    });

    // Wait until the request is actually computing, then drain.
    while (service.stats().requests == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    std::thread drainer([&] {
        EXPECT_TRUE(frontend.drain(/*deadline_ms=*/5000));
    });

    // While draining: /healthz says so (503 + "draining" body, with a
    // Retry-After), /v1 sheds with 503, and the in-flight request is
    // NOT cut off.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (!answered.load()) {
        EXPECT_TRUE(frontend.draining());
        HttpResponse draining_health;
        ASSERT_TRUE(
            watcher.get("/healthz", &draining_health, &error))
            << error;
        EXPECT_EQ(draining_health.status, 503);
        EXPECT_GE(net::retryAfterSeconds(draining_health), 1);
        json::Value doc;
        ASSERT_TRUE(json::Value::parse(draining_health.body, &doc,
                                       &error))
            << error;
        EXPECT_EQ(doc.find("status")->asString(), "draining");

        HttpResponse shed;
        ASSERT_TRUE(watcher.post("/v1/evaluate",
                                 toJson(requestVariant(5)), &shed,
                                 &error))
            << error;
        EXPECT_EQ(shed.status, 503);
        EXPECT_GE(net::retryAfterSeconds(shed), 1);
    }

    requester.join();
    drainer.join();
    EXPECT_TRUE(inflight_ok) << inflight_error;
    EXPECT_EQ(inflight_response.status, 200);
    EXPECT_FALSE(frontend.running());

    // The drain is observable on the registry.
    EXPECT_GT(util::MetricRegistry::global()
                  .histogram("vtrain_http_drain_seconds", {},
                             "Duration of graceful drains.")
                  ->snapshot()
                  .count,
              0u);
}

TEST(HttpDrain, DrainStopsAcceptingNewConnections)
{
    SimService::Options service_options;
    service_options.n_threads = 2;
    service_options.evaluator = [](const SimRequest &request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return syntheticResult(request);
    };
    SimService service(std::move(service_options));
    HttpFrontend frontend(service);
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;
    const uint16_t port = frontend.port();

    std::thread requester([&] {
        HttpClient client("127.0.0.1", port);
        HttpResponse response;
        std::string thread_error;
        EXPECT_TRUE(client.post("/v1/evaluate", toJson(tinyRequest()),
                                &response, &thread_error))
            << thread_error;
    });
    while (service.stats().requests == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    std::thread drainer(
        [&] { EXPECT_TRUE(frontend.drain(/*deadline_ms=*/5000)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // A connection dialed after the drain began must be refused: the
    // listener is already out of the accept loop.
    if (frontend.running()) {
        net::Socket late = net::connectTcp("127.0.0.1", port, &error);
        EXPECT_FALSE(late.valid());
    }

    requester.join();
    drainer.join();
    EXPECT_FALSE(frontend.running());
}

TEST(HttpDrain, DrainDeadlineBoundsTheWait)
{
    // A handler slower than the drain deadline: drain() must give up
    // (returning false) instead of blocking, and still stop.
    SimService::Options service_options;
    service_options.n_threads = 2;
    service_options.evaluator = [](const SimRequest &request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(700));
        return syntheticResult(request);
    };
    SimService service(std::move(service_options));
    HttpFrontend frontend(service);
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;

    std::thread requester([&] {
        HttpClient client("127.0.0.1", frontend.port());
        HttpResponse response;
        std::string thread_error;
        // The server stops before answering; either failure shape
        // (closed mid-wait) is acceptable, a hang is not.
        client.post("/v1/evaluate", toJson(tinyRequest()), &response,
                    &thread_error);
    });
    while (service.stats().requests == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    const auto start = std::chrono::steady_clock::now();
    // The false return IS the deadline taking effect: drain gave up
    // on graceful idleness at 100ms.  The wall clock is then bounded
    // by the in-flight handler (~700ms), which stop() must join for
    // memory safety -- but never by an unbounded graceful wait.
    EXPECT_FALSE(frontend.drain(/*deadline_ms=*/100));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 3000);
    EXPECT_FALSE(frontend.running());
    requester.join();
}

} // namespace
} // namespace vtrain
