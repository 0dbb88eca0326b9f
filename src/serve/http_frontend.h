/**
 * @file
 * HTTP frontend: SimService as a network service.
 *
 * Exposes the serve layer's versioned wire format (serve/wire.h) over
 * a dependency-free epoll HTTP/1.1 server (net/server.h), so requests
 * can come from other processes and machines:
 *
 *   POST /v1/evaluate        one SimRequest payload -> one result; a
 *                            top-level `"trace": true` adds a per-phase
 *                            breakdown of this request to the response
 *   POST /v1/evaluate_batch  {"version":1,"requests":[...]} ->
 *                            {"version":1,"results":[...]} (order
 *                            preserved; duplicates answered from the
 *                            cache after the first computes)
 *   POST /v1/sweep           one (model, cluster, options) triple plus
 *                            a plan list or SweepSpec -> ExploreResults
 *                            in request order.  With a coordinator
 *                            configured the node fans the sweep out to
 *                            its shard fleet; without one it computes
 *                            locally (the shard-side path)
 *   GET  /healthz            liveness probe with uptime and build info
 *   GET  /statz              service + cache + HTTP + sweep counters as
 *                            JSON, plus latency percentile blocks
 *   GET  /metricsz           Prometheus text exposition of the global
 *                            metric registry (util/metrics.h)
 *   GET  /tracez?limit=N     the N slowest recent request traces as
 *                            Chrome trace_event JSON (Perfetto-ready)
 *
 * Handlers run on the SimService's own ThreadPool (the server's
 * executor), so the process keeps exactly one worker pool: the event
 * loop stays responsive while simulations run, and concurrent
 * connections get true compute parallelism.  Every payload in and out
 * goes through serve/wire.h (enforced by a repo lint rule): malformed
 * payloads are answered with the shared structured error envelope
 * ({"error":{code,status,message}}), well-formed but invalid plans
 * with 422, and unknown routes with 404.
 *
 * The /v1 endpoints are overload-safe:
 *
 *   - every /v1 request passes admission control first (X-Api-Key ->
 *     tenant, token-bucket rate + inflight quotas, global cap; see
 *     serve/admission.h).  Shed work gets a structured 429 with a
 *     Retry-After header — never a silent hang — and unknown API keys
 *     get 401.  The admin endpoints skip admission so operators can
 *     still observe an overloaded node;
 *   - an optional `"deadline_ms"` budget on the request body is
 *     carried into SimService (and, on coordinator nodes, re-encoded
 *     per shard slice); work whose budget expires is shed with 504
 *     and counted per tenant;
 *   - drain() stops accepting, finishes in-flight work up to a
 *     bounded deadline and flips /healthz to 503 "draining", so load
 *     balancers and the sweep ring fail over before the listener
 *     disappears.
 */
#ifndef VTRAIN_SERVE_HTTP_FRONTEND_H
#define VTRAIN_SERVE_HTTP_FRONTEND_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/server.h"
#include "serve/admission.h"
#include "serve/sim_service.h"
#include "serve/wire.h"

namespace vtrain {

/** Combined snapshot for /statz and operators. */
struct HttpFrontendStats {
    ServiceStats service;
    net::HttpServerStats http;
    wire::SweepServerStats sweep_server;
    std::vector<AdmissionController::TenantStats> tenants;
};

/** Serves a SimService over HTTP; one instance per listening port. */
class HttpFrontend
{
  public:
    struct Options {
        std::string host = "127.0.0.1";

        /** Port to bind; 0 picks an ephemeral port (see port()). */
        uint16_t port = 0;

        /** Per-request size limits forwarded to the HTTP parser. */
        net::HttpLimits limits;

        /**
         * When set, POST /v1/sweep fans out to this coordinator's
         * shard fleet instead of computing locally, and /statz gains
         * the coordinator block.  Must outlive the frontend; the
         * frontend does not take ownership.
         */
        SweepCoordinator *coordinator = nullptr;

        /**
         * Tenant identities and quotas for /v1 admission control.
         * The default (no keys, unlimited default tenant) admits
         * everything, so existing callers see no change.
         */
        TenantTable tenants;

        /** Requests in flight across all tenants (0 = unlimited). */
        uint64_t max_global_inflight = 0;

        /**
         * Optional deterministic fault injection on the server side
         * (tests only); forwarded to the HTTP server.  Must outlive
         * the frontend.
         */
        net::FaultInjector *fault_injector = nullptr;
    };

    /** The service must outlive the frontend. */
    explicit HttpFrontend(SimService &service)
        : HttpFrontend(service, Options{})
    {
    }
    HttpFrontend(SimService &service, Options options);

    ~HttpFrontend() = default; // the server stops itself

    HttpFrontend(const HttpFrontend &) = delete;
    HttpFrontend &operator=(const HttpFrontend &) = delete;

    /**
     * Binds and starts serving.  Returns false and sets *error when
     * the address cannot be bound.
     */
    bool start(std::string *error);

    /** Drains in-flight requests and stops serving (idempotent). */
    void stop() { server_.stop(); }

    /**
     * Graceful shutdown: stop accepting, flip /healthz to draining,
     * finish in-flight requests for up to `deadline_ms`, then stop.
     * Returns true when everything in flight completed in time.
     */
    bool drain(int deadline_ms) { return server_.drain(deadline_ms); }

    /** True between beginDrain()/drain() and the final stop. */
    bool draining() const { return server_.draining(); }

    bool running() const { return server_.running(); }

    /** The bound port (the ephemeral one when Options::port was 0). */
    uint16_t port() const { return server_.port(); }

    /** "http://host:port" of the running server. */
    std::string baseUrl() const;

    HttpFrontendStats stats() const;

  private:
    net::HttpResponse handle(const net::HttpRequest &request);
    net::HttpResponse handleEvaluate(const net::HttpRequest &request);
    net::HttpResponse
    handleEvaluateBatch(const net::HttpRequest &request);
    net::HttpResponse handleSweep(const net::HttpRequest &request);

    /** Evaluates validated `batch` locally inside a trace capture
     *  named `name`, which /tracez then retains. */
    std::vector<SimulationResult>
    evaluateTraced(const char *name, const std::vector<SimRequest> &batch,
                   uint64_t deadline_ns);
    net::HttpResponse handleHealthz() const;
    net::HttpResponse handleStatz() const;
    net::HttpResponse handleMetricz() const;
    net::HttpResponse handleTracez(const net::HttpRequest &request) const;

    SimService &service_;
    SweepCoordinator *coordinator_;
    AdmissionController admission_;
    std::atomic<uint64_t> sweep_requests_{0};
    std::atomic<uint64_t> sweep_plans_{0};
    net::HttpServer server_;
};

} // namespace vtrain

#endif // VTRAIN_SERVE_HTTP_FRONTEND_H
