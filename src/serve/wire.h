/**
 * @file
 * The single versioned wire-schema surface of the serve layer.
 *
 * Every JSON payload that crosses a process boundary — the bodies of
 * POST /v1/evaluate, /v1/evaluate_batch and /v1/sweep, and the
 * responses they return — is encoded and decoded here and nowhere
 * else.  util/json.h provides only the document type (json::Value);
 * this header owns the schemas.  Bodies are compact JSON.
 *
 * Each wire type (GpuSpec, NodeSpec, ClusterSpec, ModelConfig,
 * ParallelConfig, SimOptions, SimRequest, SimulationResult, SweepSpec)
 * is described once, next to its definition, by a fields() list of
 * (JSON name, member pointer) pairs (util/hash.h).  That list drives
 * the encoder, the lax and strict decoders and the request
 * fingerprint, so a new field is one line in its type's description.
 * What is hand-written here is only the envelopes: the version, the
 * /v1/sweep `plans`-xor-`spec` choice, `trace`, `deadline_ms` and the
 * batch/sweep arrays.  The split keeps three guarantees in one place:
 *
 *   1. Versioning.  Every request and response payload carries a
 *      top-level `"version": 1` envelope.  wire::v1::parseEnvelope is
 *      the one place that checks it, so all /v1 endpoints accept and
 *      reject versions identically.
 *
 *   2. Error shape.  wire::v1::errorResponse is the one structured
 *      error-envelope builder ({"error":{code,status,message}}), so
 *      error bodies are shape-identical across endpoints (and match
 *      what the HTTP server itself emits for parse errors).
 *
 *   3. Strictness.  The sweep codecs (SweepSpec, ExploreResult, the
 *      /v1/sweep request) reject unknown fields outright: a typo'd
 *      sweep bound must fail loudly, not silently enumerate the whole
 *      design space.  The evaluate codecs keep their documented
 *      pre-existing laxness (unknown fields ignored) for forward
 *      compatibility with older clients.  Both check every field's
 *      type, and every integer against its C++ type's range.
 *
 * The admin surface (GET /statz, GET /healthz) is unversioned but its
 * body builders also live here so the schema documented in the README
 * ("Distributed sweeps" / "/statz schema") has exactly one
 * implementation.
 */
#ifndef VTRAIN_SERVE_WIRE_H
#define VTRAIN_SERVE_WIRE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "explore/design_space.h"
#include "explore/explorer.h"
#include "net/http.h"
#include "net/server.h"
#include "serve/admission.h"
#include "serve/sim_request.h"
#include "serve/sim_service.h"
#include "serve/sweep_coordinator.h"
#include "sim/result.h"
#include "util/json.h"
#include "util/trace.h"

namespace vtrain {
namespace wire {

/** The one supported wire-schema version. */
inline constexpr int64_t kVersion = 1;

namespace v1 {

// ------------------------------------------------ value-level codecs
//
// Each encode() produces the complete versioned payload for its type;
// decode() accepts either a parsed document node or raw text.  The
// node forms exist so larger documents (batch and sweep payloads) can
// embed them; they are byte-identical to the string forms.

/** Encodes a request (fatal error if it carries a perturber). */
json::Value encode(const SimRequest &request);
json::Value encode(const SimulationResult &result);

bool decode(const json::Value &root, SimRequest *out,
            std::string *error = nullptr);
bool decode(const json::Value &root, SimulationResult *out,
            std::string *error = nullptr);
bool decode(std::string_view text, SimRequest *out,
            std::string *error = nullptr);
bool decode(std::string_view text, SimulationResult *out,
            std::string *error = nullptr);

// Exact-match forwards: without these a std::string (or literal)
// argument is ambiguous between the string_view overload and the
// json::Value converting constructor.
inline bool
decode(const std::string &text, SimRequest *out,
       std::string *error = nullptr)
{
    return decode(std::string_view(text), out, error);
}
inline bool
decode(const std::string &text, SimulationResult *out,
       std::string *error = nullptr)
{
    return decode(std::string_view(text), out, error);
}
inline bool
decode(const char *text, SimRequest *out, std::string *error = nullptr)
{
    return decode(std::string_view(text), out, error);
}
inline bool
decode(const char *text, SimulationResult *out,
       std::string *error = nullptr)
{
    return decode(std::string_view(text), out, error);
}

// ------------------------------------------------- sweep codecs
//
// These are strict: an unknown field anywhere in a SweepSpec, an
// ExploreResult or the /v1/sweep request envelope fails the decode.

/** Un-enveloped SweepSpec node (embedded in the sweep request). */
json::Value encode(const SweepSpec &spec);
bool decode(const json::Value &root, SweepSpec *out,
            std::string *error = nullptr);

/** Un-enveloped {"plan":…,"result":…} node (strict; the embedded
 *  result keeps its own versioned payload, as evaluate_batch does). */
json::Value encode(const ExploreResult &result);
bool decode(const json::Value &root, ExploreResult *out,
            std::string *error = nullptr);

/**
 * The POST /v1/sweep payload: one (model, cluster, options) triple
 * shared by every point, plus either an explicit plan list or a
 * SweepSpec the server enumerates.  Exactly one of `plans` / `spec`
 * must be present on the wire.
 */
struct SweepRequest {
    ModelConfig model;
    ClusterSpec cluster;
    SimOptions options;

    /** Explicit points (used when !use_spec). */
    std::vector<ParallelConfig> plans;

    /** When true, `spec` replaces the plan list on the wire. */
    bool use_spec = false;
    SweepSpec spec;

    /**
     * Optional caller deadline budget in milliseconds (< 0 = none on
     * the wire).  The coordinator re-encodes the remaining budget
     * into each shard slice, so a slice arriving with <= 0 left is
     * shed before computing.
     */
    int64_t deadline_ms = -1;
};

json::Value encode(const SweepRequest &request);
bool decode(const json::Value &root, SweepRequest *out,
            std::string *error = nullptr);

/** {"version":1,"results":[{plan,result}…]} (order = request order). */
std::string encodeSweepResponse(const std::vector<ExploreResult> &results);
bool decodeSweepResponse(std::string_view body,
                         std::vector<ExploreResult> *out,
                         std::string *error = nullptr);

// ------------------------------------------- handler-level helpers
//
// The HTTP frontend's /v1 handlers speak only these: they parse the
// body, enforce the version envelope, and on failure fill
// *error_response with the shared error envelope (HTTP status
// included) so the handler can return it unchanged.

/** The single structured error-envelope builder for every endpoint. */
net::HttpResponse errorResponse(int status, std::string_view message);

/**
 * Parses `body` and enforces the {"version":1,…} object envelope.
 * Returns false (with *error_response set to a 400) on malformed
 * JSON, a non-object document, or a missing/unsupported version.
 */
bool parseEnvelope(std::string_view body, json::Value *root,
                   net::HttpResponse *error_response);

/**
 * Decodes a POST /v1/evaluate body.  *want_trace reports the optional
 * top-level `"trace": true` flag (a wire extension the SimRequest
 * codec itself ignores); *deadline_ms reports the optional top-level
 * `"deadline_ms"` budget (-1 when absent; a present value must be a
 * non-negative integer or the decode fails with a 400).
 */
bool decodeEvaluateRequest(std::string_view body, SimRequest *out,
                           bool *want_trace, int64_t *deadline_ms,
                           net::HttpResponse *error_response);

/** The /v1/evaluate response; `trace` embeds a phase breakdown. */
std::string encodeEvaluateResponse(const SimulationResult &result,
                                   const util::Trace *trace = nullptr);

/** Decodes a POST /v1/evaluate_batch body (indexes error messages);
 *  *deadline_ms as in decodeEvaluateRequest. */
bool decodeEvaluateBatchRequest(std::string_view body,
                                std::vector<SimRequest> *out,
                                int64_t *deadline_ms,
                                net::HttpResponse *error_response);

/** {"version":1,"results":[…]} (order preserved). */
std::string
encodeEvaluateBatchResponse(const std::vector<SimulationResult> &results);

/** Decodes a POST /v1/sweep body (strict; see SweepRequest). */
bool decodeSweepRequest(std::string_view body, SweepRequest *out,
                        net::HttpResponse *error_response);

} // namespace v1

// ------------------------------------------------- admin surface
//
// Unversioned operator endpoints.  Their schemas are documented in
// README ("/statz schema") and kept stable: clients may rely on every
// key below staying present with the same meaning.

/** Shard-side sweep counters (the "sweep"."server" block of /statz). */
struct SweepServerStats {
    uint64_t requests = 0; //!< POST /v1/sweep bodies served locally
    uint64_t plans = 0;    //!< design points those requests carried
};

/** Everything /statz renders; coordinator is null on pure shards. */
struct StatzInfo {
    ServiceStats service;
    net::HttpServerStats http;
    size_t threads = 0;
    SweepServerStats sweep_server;

    /** Set when this node fans sweeps out to shards. */
    const SweepCoordinatorStats *coordinator = nullptr;

    /** Set when the frontend runs admission control. */
    const std::vector<AdmissionController::TenantStats> *tenants =
        nullptr;
};

/** The GET /statz body. */
std::string statzBody(const StatzInfo &info);

/**
 * The GET /healthz body (uptime + build identity).  While draining
 * the "status" key flips from "ok" to "draining" (the frontend also
 * answers 503) so load balancers and the sweep ring stop routing
 * here before the listener actually goes away.
 */
std::string healthzBody(size_t threads, bool draining = false);

/**
 * The full GET /healthz response: 200 + healthzBody normally, 503
 * with a Retry-After header while draining.  Built here so the
 * status and the body's "status" key cannot drift apart.
 */
net::HttpResponse healthzResponse(size_t threads,
                                  bool draining = false);

} // namespace wire
} // namespace vtrain

#endif // VTRAIN_SERVE_WIRE_H
