#include "serve/http_frontend.h"

#include <cstdlib>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace vtrain {

namespace {

using net::HttpRequest;
using net::HttpResponse;

/** Routes we serve; everything else shares one label so a client
 *  probing random paths cannot mint unbounded metric series. */
const char *const kKnownRoutes[] = {
    "/healthz",     "/statz",       "/metricsz",
    "/tracez",      "/v1/evaluate", "/v1/evaluate_batch",
    "/v1/sweep",
};

std::string
routeLabel(const HttpRequest &request)
{
    const std::string_view path = request.path();
    for (const char *route : kKnownRoutes)
        if (path == route)
            return std::string(route);
    return "(unmatched)";
}

net::HttpServer::Options
serverOptions(const HttpFrontend::Options &options,
              SimService &service)
{
    net::HttpServer::Options server;
    server.host = options.host;
    server.port = options.port;
    server.limits = options.limits;
    // Handlers run on the service's own pool: one pool per process,
    // and the event loop never blocks on a simulation.
    server.executor = [&service](std::function<void()> task) {
        service.pool().submit(std::move(task));
    };
    server.route_label = routeLabel;
    server.fault_injector = options.fault_injector;
    return server;
}

AdmissionController::Options
admissionOptions(const HttpFrontend::Options &options)
{
    AdmissionController::Options admission;
    admission.tenants = options.tenants;
    admission.max_global_inflight = options.max_global_inflight;
    return admission;
}

/** Absolute deadline instant for a wire deadline_ms (0 = none). */
uint64_t
absoluteDeadline(int64_t deadline_ms)
{
    if (deadline_ms < 0)
        return 0;
    return util::monotonicNanos() +
           static_cast<uint64_t>(deadline_ms) * 1000000ull;
}

/** The `key=value` query parameter, or `fallback` when absent/bad. */
int64_t
queryParam(const HttpRequest &request, std::string_view key,
           int64_t fallback)
{
    const std::string_view target = request.target;
    const size_t qpos = target.find('?');
    if (qpos == std::string_view::npos)
        return fallback;
    std::string_view query = target.substr(qpos + 1);
    while (!query.empty()) {
        const size_t amp = query.find('&');
        std::string_view pair = query.substr(0, amp);
        query = amp == std::string_view::npos ? std::string_view()
                                              : query.substr(amp + 1);
        const size_t eq = pair.find('=');
        if (eq == std::string_view::npos || pair.substr(0, eq) != key)
            continue;
        const std::string value(pair.substr(eq + 1));
        char *end = nullptr;
        const long long parsed = std::strtoll(value.c_str(), &end, 10);
        if (end != value.c_str() && *end == '\0')
            return parsed;
        return fallback;
    }
    return fallback;
}

/** A 422 naming the first invalid plan in `batch`, or nullopt. */
std::optional<HttpResponse>
invalidPlan(const std::vector<SimRequest> &batch)
{
    for (size_t i = 0; i < batch.size(); ++i) {
        std::string why;
        if (!batch[i].valid(&why))
            return wire::v1::errorResponse(
                422, "invalid plan at index " + std::to_string(i) +
                         ": " + why);
    }
    return std::nullopt;
}

HttpResponse
jsonResponse(std::string body)
{
    HttpResponse response;
    response.body = std::move(body);
    return response;
}

} // namespace

HttpFrontend::HttpFrontend(SimService &service, Options options)
    : service_(service), coordinator_(options.coordinator),
      admission_(admissionOptions(options)),
      server_(serverOptions(options, service),
              [this](const HttpRequest &request) {
                  return handle(request);
              })
{
}

bool
HttpFrontend::start(std::string *error)
{
    return server_.start(error);
}

std::string
HttpFrontend::baseUrl() const
{
    return "http://" + server_.host() + ":" +
           std::to_string(server_.port());
}

HttpFrontendStats
HttpFrontend::stats() const
{
    HttpFrontendStats stats;
    stats.service = service_.stats();
    stats.http = server_.stats();
    stats.sweep_server.requests =
        sweep_requests_.load(std::memory_order_relaxed);
    stats.sweep_server.plans =
        sweep_plans_.load(std::memory_order_relaxed);
    stats.tenants = admission_.stats();
    return stats;
}

HttpResponse
HttpFrontend::handle(const HttpRequest &request)
{
    const std::string_view path = request.path();
    if (path == "/healthz") {
        if (request.method != "GET")
            return wire::v1::errorResponse(405, "use GET /healthz");
        return handleHealthz();
    }
    if (path == "/statz") {
        if (request.method != "GET")
            return wire::v1::errorResponse(405, "use GET /statz");
        return handleStatz();
    }
    if (path == "/metricsz") {
        if (request.method != "GET")
            return wire::v1::errorResponse(405, "use GET /metricsz");
        return handleMetricz();
    }
    if (path == "/tracez") {
        if (request.method != "GET")
            return wire::v1::errorResponse(405, "use GET /tracez");
        return handleTracez(request);
    }
    const bool is_v1 = path == "/v1/evaluate" ||
                       path == "/v1/evaluate_batch" ||
                       path == "/v1/sweep";
    if (!is_v1)
        return wire::v1::errorResponse(
            404, "no route for '" + std::string(path) + "'");
    if (request.method != "POST")
        return wire::v1::errorResponse(
            405, "use POST " + std::string(path));

    // Overload safety happens before any decode or compute.  A
    // draining node turns every /v1 request away (the ring and load
    // balancers should already have failed over via /healthz); an
    // admitted request holds its tenant's inflight slot until the
    // response below is built.
    if (server_.draining()) {
        HttpResponse response = wire::v1::errorResponse(
            503, "server is draining; retry against another replica");
        response.headers.push_back({"Retry-After", "1"});
        return response;
    }
    AdmissionDecision decision =
        admission_.admit(request.findHeader("X-Api-Key"));
    if (decision.unknown_key)
        return wire::v1::errorResponse(401, "unknown API key");
    if (!decision.admitted) {
        HttpResponse response = wire::v1::errorResponse(
            429, "tenant '" + decision.tenant + "' over its " +
                     decision.reason + " limit; retry after " +
                     std::to_string(decision.retry_after_s) + "s");
        response.headers.push_back(
            {"Retry-After", std::to_string(decision.retry_after_s)});
        return response;
    }

    try {
        if (path == "/v1/evaluate")
            return handleEvaluate(request);
        if (path == "/v1/evaluate_batch")
            return handleEvaluateBatch(request);
        return handleSweep(request);
    } catch (const DeadlineExceeded &expired) {
        // Admitted but out of budget before (or while) computing:
        // counted per tenant as expired, a sub-outcome of admitted.
        admission_.recordExpired(decision.tenant_index);
        return wire::v1::errorResponse(504, expired.what());
    }
}

HttpResponse
HttpFrontend::handleEvaluate(const HttpRequest &request)
{
    SimRequest sim_request;
    bool want_trace = false;
    int64_t deadline_ms = -1;
    HttpResponse error_response;
    if (!wire::v1::decodeEvaluateRequest(request.body, &sim_request,
                                         &want_trace, &deadline_ms,
                                         &error_response))
        return error_response;
    std::string why;
    if (!sim_request.valid(&why))
        return wire::v1::errorResponse(422, "invalid plan: " + why);

    // Every evaluate is captured (spans are near-free) and retained
    // in the global ring so /tracez can answer "what did the slow
    // ones do" after the fact.
    util::TraceCapture capture("POST /v1/evaluate");
    const SimulationResult result =
        service_.evaluate(sim_request, absoluteDeadline(deadline_ms));
    util::Trace trace = capture.finish();

    std::string body = wire::v1::encodeEvaluateResponse(
        result, want_trace ? &trace : nullptr);
    util::TraceRing::global().push(std::move(trace));
    return jsonResponse(std::move(body));
}

HttpResponse
HttpFrontend::handleEvaluateBatch(const HttpRequest &request)
{
    std::vector<SimRequest> batch;
    int64_t deadline_ms = -1;
    HttpResponse error_response;
    if (!wire::v1::decodeEvaluateBatchRequest(request.body, &batch,
                                              &deadline_ms,
                                              &error_response))
        return error_response;
    if (std::optional<HttpResponse> rejected = invalidPlan(batch))
        return *rejected;
    return jsonResponse(wire::v1::encodeEvaluateBatchResponse(
        evaluateTraced("POST /v1/evaluate_batch", batch,
                       absoluteDeadline(deadline_ms))));
}

HttpResponse
HttpFrontend::handleSweep(const HttpRequest &request)
{
    wire::v1::SweepRequest sweep_request;
    HttpResponse error_response;
    if (!wire::v1::decodeSweepRequest(request.body, &sweep_request,
                                      &error_response))
        return error_response;

    // A SweepSpec enumerates on the receiving node; explicit plans
    // pass through.  Coordinators always forward explicit plans, so
    // shards never re-enumerate (the split must match the ring).
    std::vector<ParallelConfig> plans =
        sweep_request.use_spec
            ? enumeratePlans(sweep_request.model, sweep_request.cluster,
                             sweep_request.spec)
            : std::move(sweep_request.plans);
    const std::vector<SimRequest> batch =
        sweepRequests(sweep_request.model, sweep_request.cluster,
                      sweep_request.options, plans);
    if (std::optional<HttpResponse> rejected = invalidPlan(batch))
        return *rejected;
    sweep_requests_.fetch_add(1, std::memory_order_relaxed);
    sweep_plans_.fetch_add(plans.size(), std::memory_order_relaxed);

    const uint64_t deadline_ns =
        absoluteDeadline(sweep_request.deadline_ms);
    std::vector<ExploreResult> results(plans.size());
    if (coordinator_ != nullptr) {
        // Coordinator node: partition across the shard fleet and
        // merge.  A sweep the fleet cannot finish (every shard dead,
        // malformed shard response) surfaces as a 502 so the caller
        // can tell infrastructure failure from a bad request; an
        // expired deadline propagates to handle()'s 504 path.
        try {
            results = coordinator_->sweep(batch, deadline_ns);
        } catch (const DeadlineExceeded &) {
            throw;
        } catch (const std::exception &failure) {
            return wire::v1::errorResponse(502, failure.what());
        }
    } else {
        // Shard side: compute locally, as handleEvaluateBatch does.
        std::vector<SimulationResult> sims =
            evaluateTraced("POST /v1/sweep", batch, deadline_ns);
        for (size_t i = 0; i < plans.size(); ++i) {
            results[i].plan = plans[i];
            results[i].sim = std::move(sims[i]);
        }
    }
    return jsonResponse(wire::v1::encodeSweepResponse(results));
}

std::vector<SimulationResult>
HttpFrontend::evaluateTraced(const char *name,
                             const std::vector<SimRequest> &batch,
                             uint64_t deadline_ns)
{
    // Handlers are pool tasks.  evaluateBatch computes on this thread
    // plus whatever pool threads are free, never waiting on a queued
    // task, and publishes to the shared cache so identical requests
    // from other connections still collapse.
    util::TraceCapture capture(name);
    std::vector<SimulationResult> answers =
        service_.evaluateBatch(batch, deadline_ns);
    util::TraceRing::global().push(capture.finish());
    return answers;
}

HttpResponse
HttpFrontend::handleHealthz() const
{
    // While draining the body says "draining" and the status goes
    // 503, so probes and the sweep ring stop routing here before the
    // listener goes away (the response builder lives in wire.cc so
    // the status and body cannot drift apart).
    return wire::healthzResponse(service_.numThreads(),
                                 server_.draining());
}

HttpResponse
HttpFrontend::handleStatz() const
{
    const HttpFrontendStats stats = this->stats();
    wire::StatzInfo info;
    info.service = stats.service;
    info.http = stats.http;
    info.threads = service_.numThreads();
    info.sweep_server = stats.sweep_server;
    SweepCoordinatorStats coordinator_stats;
    if (coordinator_ != nullptr) {
        coordinator_stats = coordinator_->stats();
        info.coordinator = &coordinator_stats;
    }
    info.tenants = &stats.tenants;
    return jsonResponse(wire::statzBody(info));
}

HttpResponse
HttpFrontend::handleMetricz() const
{
    util::MetricRegistry &registry = util::MetricRegistry::global();

    // Scrape-time gauges: cache occupancy is owned by the caches, so
    // rather than pushing on every insert/evict, set it when asked.
    const ServiceStats stats = service_.stats();
    const std::pair<const char *, const util::CacheStats *> caches[] = {
        {"result", &stats.cache}, {"template", &stats.graph_templates}};
    for (const auto &[name, cache] : caches) {
        registry.gauge("vtrain_cache_entries", {{"cache", name}},
                       kCacheEntriesHelp)
            ->set(static_cast<int64_t>(cache->entries));
        registry.gauge("vtrain_cache_bytes", {{"cache", name}},
                       kCacheBytesHelp)
            ->set(static_cast<int64_t>(cache->bytes));
    }

    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4";
    response.body = registry.renderPrometheus();
    return response;
}

HttpResponse
HttpFrontend::handleTracez(const HttpRequest &request) const
{
    constexpr int64_t kDefaultLimit = 16;
    int64_t limit = queryParam(request, "limit", kDefaultLimit);
    if (limit < 0)
        limit = kDefaultLimit;
    HttpResponse response;
    response.body = util::chromeTraceJson(
        util::TraceRing::global().slowest(static_cast<size_t>(limit)));
    return response;
}

} // namespace vtrain
