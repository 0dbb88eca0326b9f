#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <ranges>
#include <type_traits>
#include <utility>

#include "sim/engine.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace vtrain {
namespace wire {

namespace {

using json::Value;

/** Largest double magnitude that still represents integers exactly. */
constexpr double kMaxExactInt = 9007199254740992.0; // 2^53

// ------------------------------------------------------------ encoding

template <typename T> void appendFields(Value *object, const T &value);

/**
 * A value as JSON: enums by name, integers as numbers, ranges as
 * arrays and described types (util/hash.h) as objects.
 */
template <typename T>
Value
toJson(const T &value)
{
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::string>) {
        return Value(value);
    } else if constexpr (std::is_enum_v<T>) {
        return Value(toString(value));
    } else if constexpr (std::is_integral_v<T>) {
        return Value(static_cast<int64_t>(value));
    } else if constexpr (std::ranges::range<T>) {
        Value array = Value::array();
        for (const auto &item : value)
            array.push(toJson(item));
        return array;
    } else {
        Value object = Value::object();
        appendFields(&object, value);
        return object;
    }
}

/** Sets one member per described field of `value`, in order. */
template <typename T>
void
appendFields(Value *object, const T &value)
{
    fields([object, &value](const char *key, auto member) {
        object->set(key, toJson(value.*member));
    }, &value);
}

/** A described type's complete payload: {"version":1, fields...}. */
template <typename T>
Value
versioned(const T &value)
{
    Value v = Value::object();
    v.set("version", kVersion);
    appendFields(&v, value);
    return v;
}

// ------------------------------------------------------------ decoding

bool
decodeError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

/** Rejects any member of `obj` outside `keys` (strict codecs only). */
bool
onlyKnownKeys(const Value &obj, const std::vector<std::string_view> &keys,
              std::string_view what, std::string *error)
{
    for (const auto &[key, value] : obj.members()) {
        (void)value;
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            return decodeError(error, "unknown field '" + key +
                                          "' in " + std::string(what));
    }
    return true;
}

// Every enumerator of each wire enum; decoding matches toString().

constexpr std::array<Precision, 3>
enumerators(Precision)
{
    return {Precision::FP16, Precision::BF16, Precision::FP32};
}

constexpr std::array<PipelineSchedule, 2>
enumerators(PipelineSchedule)
{
    return {PipelineSchedule::GPipe, PipelineSchedule::OneFOneB};
}

constexpr std::array<AttentionImpl, 3>
enumerators(AttentionImpl)
{
    return {AttentionImpl::Megatron, AttentionImpl::FlashAttention,
            AttentionImpl::FlashAttention2};
}

/**
 * Decodes described types (and their fields) from JSON.  Every field
 * is required and type-checked; integers are range-checked against
 * their C++ type.  A strict decoder also rejects keys outside the
 * description at every nesting level: the sweep codecs use it so a
 * typo'd bound fails the request instead of silently falling back to
 * a default and enumerating the wrong space.  The evaluate codecs
 * stay lax (unknown keys ignored) for forward compatibility.
 */
class Decoder
{
  public:
    Decoder(bool strict, std::string *error)
        : strict_(strict), error_(error)
    {
    }

    /** Decodes the member `key` of `object` into *out. */
    template <typename T>
    bool
    field(const Value &object, std::string_view key, T *out) const
    {
        const Value *v = object.find(key);
        return v ? value(*v, key, out) : mistyped(key);
    }

    /** Decodes `v`, the value of field `key`, into *out. */
    template <typename T>
    bool
    value(const Value &v, std::string_view key, T *out) const
    {
        if constexpr (std::is_same_v<T, bool>) {
            if (!v.isBool())
                return mistyped(key);
            *out = v.asBool();
        } else if constexpr (std::is_same_v<T, double>) {
            if (!v.isNumber())
                return mistyped(key);
            *out = v.asNumber();
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (!v.isString())
                return mistyped(key);
            *out = v.asString();
        } else if constexpr (std::is_enum_v<T>) {
            if (!v.isString())
                return mistyped(key);
            for (const T e : enumerators(T{})) {
                if (toString(e) == v.asString()) {
                    *out = e;
                    return true;
                }
            }
            return fail("field '" + std::string(key) +
                        "' has unknown value '" + v.asString() + "'");
        } else if constexpr (std::is_integral_v<T>) {
            return integer(v, key, out);
        } else if constexpr (std::ranges::range<T>) {
            if (!v.isArray())
                return mistyped(key);
            const std::vector<Value> &items = v.items();
            if constexpr (requires { out->resize(items.size()); })
                out->resize(items.size());
            else if (items.size() != out->size())
                return fail("field '" + std::string(key) + "' must have " +
                            std::to_string(out->size()) + " entries");
            for (size_t i = 0; i < items.size(); ++i) {
                if (!value(items[i], key, &(*out)[i]))
                    return false;
            }
        } else {
            if (!v.isObject())
                return mistyped(key);
            return object(v, key, out);
        }
        return true;
    }

    /**
     * Decodes every described field of `obj` into *out.  `what`
     * names the object in strictness errors; `envelope` lists keys
     * the caller handles itself (e.g. "version").
     */
    template <typename T>
    bool
    object(const Value &obj, std::string_view what, T *out,
           std::vector<std::string_view> envelope = {}) const
    {
        if (strict_) {
            fields([&envelope](std::string_view name, auto) {
                envelope.push_back(name);
            }, out);
            if (!onlyKnownKeys(obj, envelope, what, error_))
                return false;
        }
        bool ok = true;
        fields([&](std::string_view key, auto member) {
            ok = ok && field(obj, key, &(out->*member));
        }, out);
        return ok;
    }

  private:
    bool fail(const std::string &what) const
    {
        return decodeError(error_, what);
    }

    bool mistyped(std::string_view key) const
    {
        return fail("missing or mistyped field '" + std::string(key) +
                    "'");
    }

    /**
     * Range-checked integer decode: the decoder is the cross-process
     * input boundary, and an unchecked narrowing cast from double is
     * undefined behavior.  Within +/-2^53 every integer is exact, so
     * the limit comparisons are themselves safe.
     */
    template <typename Int>
    bool
    integer(const Value &v, std::string_view key, Int *out) const
    {
        if (!v.isNumber())
            return mistyped(key);
        const double d = v.asNumber();
        if (std::nearbyint(d) != d)
            return fail("field '" + std::string(key) +
                        "' is not an integer");
        if (d < -kMaxExactInt || d > kMaxExactInt ||
            d < static_cast<double>(std::numeric_limits<Int>::min()) ||
            d > static_cast<double>(std::numeric_limits<Int>::max()))
            return fail("field '" + std::string(key) +
                        "' is out of range");
        *out = static_cast<Int>(d);
        return true;
    }

    bool strict_;
    std::string *error_;
};

bool
checkVersion(const Value &root, std::string *error)
{
    int64_t version = 0;
    if (!Decoder(false, error).field(root, "version", &version))
        return false;
    if (version != kVersion)
        return decodeError(error, "unsupported wire version " +
                                      std::to_string(version));
    return true;
}

/** Decodes a {"version":1, fields...} payload (see versioned()). */
template <typename T>
bool
decodeVersioned(const Value &root, bool strict, std::string_view what,
                T *out, std::string *error)
{
    if (!root.isObject())
        return decodeError(error, std::string(what) +
                                      " document is not an object");
    T value;
    if (!checkVersion(root, error) ||
        !Decoder(strict, error).object(root, what, &value, {"version"}))
        return false;
    *out = std::move(value);
    return true;
}

/**
 * Reads the optional top-level "deadline_ms" budget (-1 when absent).
 * A present value must be a non-negative integer.
 */
bool
readDeadlineMs(const Value &root, int64_t *deadline_ms,
               std::string *error)
{
    *deadline_ms = -1;
    const Value *deadline = root.find("deadline_ms");
    if (!deadline)
        return true;
    int64_t ms = 0;
    if (!Decoder(false, error).value(*deadline, "deadline_ms", &ms))
        return false;
    if (ms < 0)
        return decodeError(error, "'deadline_ms' must be a "
                                  "non-negative integer");
    *deadline_ms = ms;
    return true;
}

/** {"version":1,"results":[…]}, one encode() per item, in order. */
template <typename T>
std::string
resultsBody(const std::vector<T> &results)
{
    Value items = Value::array();
    for (const T &result : results)
        items.push(v1::encode(result));
    Value body = Value::object();
    body.set("version", kVersion);
    body.set("results", std::move(items));
    return body.dump();
}

/** A finished capture's spans as a JSON object (inline trace flag). */
Value
traceBlock(const util::Trace &trace)
{
    Value spans = Value::array();
    for (const util::TraceEvent &event : trace.events) {
        Value span = Value::object();
        span.set("name", event.name);
        span.set("start_us", event.start_us);
        span.set("dur_us", event.dur_us);
        span.set("depth", static_cast<int64_t>(event.depth));
        spans.push(std::move(span));
    }
    Value v = Value::object();
    v.set("label", trace.label);
    v.set("total_us", trace.total_us);
    if (trace.dropped_spans > 0)
        v.set("dropped_spans",
              static_cast<int64_t>(trace.dropped_spans));
    v.set("spans", std::move(spans));
    return v;
}

Value
cacheStatsBlock(const util::CacheStats &cache)
{
    Value v = Value::object();
    v.set("hits", static_cast<int64_t>(cache.hits));
    v.set("misses", static_cast<int64_t>(cache.misses));
    v.set("insertions", static_cast<int64_t>(cache.insertions));
    v.set("updates", static_cast<int64_t>(cache.updates));
    v.set("evictions", static_cast<int64_t>(cache.evictions));
    v.set("entries", static_cast<int64_t>(cache.entries));
    v.set("bytes", static_cast<int64_t>(cache.bytes));
    v.set("hit_rate", cache.hitRate());
    return v;
}

} // namespace

namespace v1 {

Value
encode(const SimRequest &request)
{
    VTRAIN_REQUIRE(request.options.perturber == nullptr,
                   "requests carrying a perturber are process-local "
                   "and cannot be serialized");
    return versioned(request);
}

Value
encode(const SimulationResult &result)
{
    return versioned(result);
}

bool
decode(const json::Value &root, SimRequest *out, std::string *error)
{
    return decodeVersioned(root, /*strict=*/false, "request", out,
                           error);
}

bool
decode(const json::Value &root, SimulationResult *out,
       std::string *error)
{
    return decodeVersioned(root, /*strict=*/false, "result", out, error);
}

bool
decode(std::string_view text, SimRequest *out, std::string *error)
{
    Value root;
    if (!Value::parse(text, &root, error))
        return false;
    return decode(root, out, error);
}

bool
decode(std::string_view text, SimulationResult *out, std::string *error)
{
    Value root;
    if (!Value::parse(text, &root, error))
        return false;
    return decode(root, out, error);
}

Value
encode(const SweepSpec &spec)
{
    return toJson(spec);
}

bool
decode(const json::Value &root, SweepSpec *out, std::string *error)
{
    if (!root.isObject())
        return decodeError(error, "spec is not an object");
    SweepSpec spec;
    if (!Decoder(/*strict=*/true, error).object(root, "spec", &spec))
        return false;
    *out = std::move(spec);
    return true;
}

Value
encode(const ExploreResult &result)
{
    Value v = Value::object();
    v.set("plan", toJson(result.plan));
    v.set("result", encode(result.sim));
    return v;
}

bool
decode(const json::Value &root, ExploreResult *out, std::string *error)
{
    if (!root.isObject())
        return decodeError(error, "explore result is not an object");
    if (!onlyKnownKeys(root, {"plan", "result"}, "explore result",
                       error))
        return false;
    ExploreResult result;
    if (!Decoder(/*strict=*/true, error)
             .field(root, "plan", &result.plan))
        return false;
    const Value *sim = root.find("result");
    if (!sim || !sim->isObject())
        return decodeError(error, "missing or mistyped field 'result'");
    if (!decodeVersioned(*sim, /*strict=*/true, "result", &result.sim,
                         error))
        return false;
    *out = std::move(result);
    return true;
}

Value
encode(const SweepRequest &request)
{
    VTRAIN_REQUIRE(request.options.perturber == nullptr,
                   "requests carrying a perturber are process-local "
                   "and cannot be serialized");
    Value v = Value::object();
    v.set("version", kVersion);
    v.set("model", toJson(request.model));
    v.set("cluster", toJson(request.cluster));
    v.set("options", toJson(request.options));
    if (request.use_spec)
        v.set("spec", encode(request.spec));
    else
        v.set("plans", toJson(request.plans));
    if (request.deadline_ms >= 0)
        v.set("deadline_ms", request.deadline_ms);
    return v;
}

bool
decode(const json::Value &root, SweepRequest *out, std::string *error)
{
    if (!root.isObject())
        return decodeError(error,
                           "sweep request is not an object");
    if (!onlyKnownKeys(root,
                       {"version", "model", "cluster", "options",
                        "plans", "spec", "deadline_ms"},
                       "sweep request", error))
        return false;
    if (!checkVersion(root, error))
        return false;
    const Decoder strict(/*strict=*/true, error);
    SweepRequest request;
    if (!strict.field(root, "model", &request.model) ||
        !strict.field(root, "cluster", &request.cluster) ||
        !strict.field(root, "options", &request.options))
        return false;

    const Value *plans = root.find("plans");
    const Value *spec = root.find("spec");
    if ((plans != nullptr) == (spec != nullptr))
        return decodeError(error, "sweep request must carry exactly "
                                  "one of 'plans' and 'spec'");
    if (plans) {
        if (!plans->isArray())
            return decodeError(error, "'plans' must be an array");
        request.plans.resize(plans->items().size());
        for (size_t i = 0; i < plans->items().size(); ++i) {
            if (!strict.value(plans->items()[i], "plan",
                              &request.plans[i]))
                return decodeError(
                    error, "bad plan at index " + std::to_string(i) +
                               ": " + (error ? *error : ""));
        }
    } else {
        if (!spec->isObject())
            return decodeError(error, "'spec' must be an object");
        request.use_spec = true;
        if (!decode(*spec, &request.spec, error))
            return false;
    }
    if (!readDeadlineMs(root, &request.deadline_ms, error))
        return false;
    *out = std::move(request);
    return true;
}

std::string
encodeSweepResponse(const std::vector<ExploreResult> &results)
{
    return resultsBody(results);
}

bool
decodeSweepResponse(std::string_view body,
                    std::vector<ExploreResult> *out, std::string *error)
{
    Value root;
    if (!Value::parse(body, &root, error))
        return false;
    if (!root.isObject())
        return decodeError(error,
                           "sweep response is not an object");
    if (!onlyKnownKeys(root, {"version", "results"}, "sweep response",
                       error))
        return false;
    if (!checkVersion(root, error))
        return false;
    const Value *results = root.find("results");
    if (!results || !results->isArray())
        return decodeError(error,
                           "missing or mistyped field 'results'");
    std::vector<ExploreResult> decoded;
    decoded.reserve(results->items().size());
    for (size_t i = 0; i < results->items().size(); ++i) {
        ExploreResult result;
        if (!decode(results->items()[i], &result, error))
            return decodeError(
                error, "bad result at index " + std::to_string(i) +
                           ": " + (error ? *error : ""));
        decoded.push_back(std::move(result));
    }
    *out = std::move(decoded);
    return true;
}

// ------------------------------------------------------------ handlers

net::HttpResponse
errorResponse(int status, std::string_view message)
{
    // Delegates to the HTTP layer's builder so handler-produced errors
    // are byte-compatible with the ones the server itself emits for
    // parse failures: one shape, wherever the error is detected.
    return net::errorResponse(status, message);
}

bool
parseEnvelope(std::string_view body, json::Value *root,
              net::HttpResponse *error_response)
{
    std::string error;
    if (!Value::parse(body, root, &error)) {
        *error_response =
            errorResponse(400, "bad request payload: " + error);
        return false;
    }
    if (!root->isObject()) {
        *error_response = errorResponse(
            400, "bad request payload: document is not an object");
        return false;
    }
    if (!checkVersion(*root, &error)) {
        *error_response =
            errorResponse(400, "bad request payload: " + error);
        return false;
    }
    return true;
}

bool
decodeEvaluateRequest(std::string_view body, SimRequest *out,
                      bool *want_trace, int64_t *deadline_ms,
                      net::HttpResponse *error_response)
{
    json::Value root;
    if (!parseEnvelope(body, &root, error_response))
        return false;
    // Optional wire flag, ignored by the request decoder: return this
    // request's phase breakdown inline in the response.
    const Value *trace_flag = root.find("trace");
    *want_trace =
        trace_flag && trace_flag->isBool() && trace_flag->asBool();
    std::string error;
    if (!readDeadlineMs(root, deadline_ms, &error) ||
        !decode(root, out, &error)) {
        *error_response =
            errorResponse(400, "bad request payload: " + error);
        return false;
    }
    return true;
}

std::string
encodeEvaluateResponse(const SimulationResult &result,
                       const util::Trace *trace)
{
    Value body = encode(result);
    if (trace)
        body.set("trace", traceBlock(*trace));
    return body.dump();
}

bool
decodeEvaluateBatchRequest(std::string_view body,
                           std::vector<SimRequest> *out,
                           int64_t *deadline_ms,
                           net::HttpResponse *error_response)
{
    json::Value root;
    if (!parseEnvelope(body, &root, error_response))
        return false;
    std::string error;
    if (!readDeadlineMs(root, deadline_ms, &error)) {
        *error_response =
            errorResponse(400, "bad request payload: " + error);
        return false;
    }
    const Value *requests = root.find("requests");
    if (!requests || !requests->isArray()) {
        *error_response = errorResponse(
            400,
            "bad request payload: 'requests' must be an array");
        return false;
    }
    std::vector<SimRequest> batch;
    batch.reserve(requests->items().size());
    for (size_t i = 0; i < requests->items().size(); ++i) {
        SimRequest request;
        if (!decode(requests->items()[i], &request, &error)) {
            *error_response = errorResponse(
                400, "bad request payload at index " +
                         std::to_string(i) + ": " + error);
            return false;
        }
        batch.push_back(std::move(request));
    }
    *out = std::move(batch);
    return true;
}

std::string
encodeEvaluateBatchResponse(const std::vector<SimulationResult> &results)
{
    return resultsBody(results);
}

bool
decodeSweepRequest(std::string_view body, SweepRequest *out,
                   net::HttpResponse *error_response)
{
    json::Value root;
    if (!parseEnvelope(body, &root, error_response))
        return false;
    std::string error;
    if (!decode(root, out, &error)) {
        *error_response =
            errorResponse(400, "bad request payload: " + error);
        return false;
    }
    return true;
}

} // namespace v1


// ------------------------------------------------------------ admin

std::string
statzBody(const StatzInfo &info)
{
    Value service = Value::object();
    service.set("requests",
                static_cast<int64_t>(info.service.requests));
    service.set("computed",
                static_cast<int64_t>(info.service.computed));
    service.set("inflight_joins",
                static_cast<int64_t>(info.service.inflight_joins));
    service.set("batch_dedups",
                static_cast<int64_t>(info.service.batch_dedups));
    service.set("cache", cacheStatsBlock(info.service.cache));
    service.set("template_cache",
                cacheStatsBlock(info.service.graph_templates));

    Value engine = Value::object();
    engine.set("replay_runs",
               static_cast<int64_t>(info.service.engine.replay_runs));
    engine.set("queue_runs",
               static_cast<int64_t>(info.service.engine.queue_runs));
    engine.set(
        "batched_points",
        static_cast<int64_t>(info.service.engine.batched_points));
    service.set("engine", std::move(engine));

    // Worker-pool block: pinning state and the live migration count
    // (how often workers hopped CPUs; stays 0 when pinning holds).
    Value pool = Value::object();
    pool.set("threads",
             static_cast<int64_t>(info.service.pool.threads));
    pool.set("pinned", info.service.pool.pinned);
    Value pool_cpus = Value::array();
    for (int cpu : info.service.pool.cpus)
        pool_cpus.push(Value(static_cast<int64_t>(cpu)));
    pool.set("cpus", std::move(pool_cpus));
    pool.set("migrations",
             static_cast<int64_t>(info.service.pool.migrations));
    service.set("pool", std::move(pool));

    Value http = Value::object();
    http.set("connections_accepted",
             static_cast<int64_t>(info.http.connections_accepted));
    http.set("connections_open",
             static_cast<int64_t>(info.http.connections_open));
    http.set("requests", static_cast<int64_t>(info.http.requests));
    http.set("responses", static_cast<int64_t>(info.http.responses));
    http.set("parse_errors",
             static_cast<int64_t>(info.http.parse_errors));

    // Percentile blocks for every histogram series with data, keyed
    // "name{label=value,...}": the flat counters above say how much,
    // these say how slow.
    Value latency = Value::object();
    for (const util::MetricRegistry::HistogramSeries &series :
         util::MetricRegistry::global().histogramSeries()) {
        if (series.snapshot.count == 0)
            continue;
        std::string key = series.name;
        if (!series.labels.empty()) {
            key += '{';
            for (size_t i = 0; i < series.labels.size(); ++i) {
                if (i)
                    key += ',';
                key += series.labels[i].first;
                key += '=';
                key += series.labels[i].second;
            }
            key += '}';
        }
        Value block = Value::object();
        block.set("count",
                  static_cast<int64_t>(series.snapshot.count));
        block.set("mean", series.snapshot.mean());
        block.set("p50", series.snapshot.percentile(50.0));
        block.set("p90", series.snapshot.percentile(90.0));
        block.set("p99", series.snapshot.percentile(99.0));
        block.set("max", series.snapshot.max);
        latency.set(std::move(key), std::move(block));
    }

    // The stable "sweep" block: shard-side serving counters always,
    // the coordinator's fleet view when this node runs one.
    Value sweep = Value::object();
    Value sweep_server = Value::object();
    sweep_server.set("requests",
                     static_cast<int64_t>(info.sweep_server.requests));
    sweep_server.set("plans",
                     static_cast<int64_t>(info.sweep_server.plans));
    sweep.set("server", std::move(sweep_server));
    if (info.coordinator) {
        const SweepCoordinatorStats &coord = *info.coordinator;
        Value c = Value::object();
        c.set("sweeps", static_cast<int64_t>(coord.sweeps));
        c.set("plans", static_cast<int64_t>(coord.plans));
        c.set("groups", static_cast<int64_t>(coord.groups));
        c.set("retries", static_cast<int64_t>(coord.retries));
        c.set("failovers", static_cast<int64_t>(coord.failovers));
        Value shards = Value::array();
        for (const SweepShardStats &shard : coord.shards) {
            Value s = Value::object();
            s.set("shard", shard.shard);
            s.set("requests", static_cast<int64_t>(shard.requests));
            s.set("plans", static_cast<int64_t>(shard.plans));
            s.set("retries", static_cast<int64_t>(shard.retries));
            s.set("failures", static_cast<int64_t>(shard.failures));
            s.set("failovers", static_cast<int64_t>(shard.failovers));
            shards.push(std::move(s));
        }
        c.set("shards", std::move(shards));
        sweep.set("coordinator", std::move(c));
    }

    Value body = Value::object();
    body.set("service", std::move(service));
    body.set("http", std::move(http));
    body.set("latency", std::move(latency));
    body.set("threads", static_cast<int64_t>(info.threads));
    body.set("sweep", std::move(sweep));

    // The admission view: one object per tenant, keyed by name, so a
    // scrape can verify admitted + shed.* accounts for every /v1
    // request (expired is a sub-outcome of admitted, not a third
    // partition).
    if (info.tenants) {
        Value tenants = Value::object();
        for (const AdmissionController::TenantStats &t :
             *info.tenants) {
            Value row = Value::object();
            row.set("admitted", static_cast<int64_t>(t.admitted));
            Value shed = Value::object();
            shed.set("rate", static_cast<int64_t>(t.shed_rate));
            shed.set("inflight",
                     static_cast<int64_t>(t.shed_inflight));
            shed.set("queue", static_cast<int64_t>(t.shed_queue));
            shed.set("auth", static_cast<int64_t>(t.shed_auth));
            row.set("shed", std::move(shed));
            row.set("expired", static_cast<int64_t>(t.expired));
            row.set("inflight", static_cast<int64_t>(t.inflight));
            tenants.set(t.tenant, std::move(row));
        }
        body.set("tenants", std::move(tenants));
    }
    return body.dump();
}

std::string
healthzBody(size_t threads, bool draining)
{
    const util::BuildInfo &build = util::buildInfo();
    Value body = Value::object();
    body.set("status", draining ? "draining" : "ok");
    body.set("threads", static_cast<int64_t>(threads));
    body.set("uptime_s", util::processUptimeSeconds());
    body.set("version", build.version);
    body.set("git_describe", build.git_describe);
    body.set("build_type", build.build_type);
    return body.dump();
}

net::HttpResponse
healthzResponse(size_t threads, bool draining)
{
    net::HttpResponse response;
    response.body = healthzBody(threads, draining);
    if (draining) {
        response.status = 503;
        response.headers.push_back({"Retry-After", "1"});
    }
    return response;
}

} // namespace wire
} // namespace vtrain
