/**
 * @file
 * Golden and property tests of the /v1 wire schema and the request
 * fingerprints.
 *
 * WireGolden pins two things that must never change by accident:
 *   - the 64-bit digests that key the result cache and the batch
 *     groups (SimRequest::fingerprint, ClusterSpec::fingerprint, the
 *     per-type hashValue()s and batchGroupKey), for fixed requests
 *     that cover every Precision, PipelineSchedule and AttentionImpl;
 *   - the member-key sequence of every encoded type and envelope.
 * A digest or key-order change breaks cross-process caches and old
 * clients, so it must be a deliberate, versioned schema change.
 *
 * WireProperty runs seeded random values of every wire type through
 * encode/decode: the round trip is exact, every dropped field is
 * named in the decode error, and an unknown key at any nesting level
 * fails the strict sweep codecs while the evaluate codec ignores it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "explore/design_space.h"
#include "explore/explorer.h"
#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"
#include "serve/sim_request.h"
#include "serve/wire.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/trace.h"

namespace vtrain {
namespace {

// -------------------------------------------------------------- golden

/** Defaults everywhere: FP16, 1F1B, Megatron attention. */
SimRequest
goldenDefault()
{
    SimRequest r;
    r.model = makeModel(12288, 96, 96); // GPT-3 175B
    r.parallel.tensor = 8;
    r.parallel.data = 16;
    r.parallel.pipeline = 8;
    r.parallel.micro_batch_size = 1;
    r.parallel.global_batch_size = 1536;
    r.cluster = makeCluster(1024);
    return r;
}

/** BF16, GPipe, FlashAttention; every boolean flipped. */
SimRequest
goldenFlipped()
{
    SimRequest r;
    r.model = makeModel(4096, 32, 32, 4096, 50304);
    r.model.name = "golden \"7B\"\n";
    r.parallel.tensor = 4;
    r.parallel.data = 4;
    r.parallel.pipeline = 2;
    r.parallel.micro_batch_size = 2;
    r.parallel.global_batch_size = 256;
    r.parallel.schedule = PipelineSchedule::GPipe;
    r.parallel.gradient_bucketing = false;
    r.parallel.bucket_bytes = 50e6;
    r.parallel.activation_recompute = false;
    r.parallel.zero_stage = 1;
    r.parallel.precision = Precision::BF16;
    r.cluster = makeCluster(32, dgxA100Node());
    r.cluster.node.gpu = a100Sxm40GB();
    r.cluster.bandwidth_effectiveness = 0.75;
    r.cluster.hierarchical_allreduce = true;
    r.options.fast_mode = false;
    r.options.collapse_operators = true;
    r.options.attention = AttentionImpl::FlashAttention;
    return r;
}

/** FP32, FlashAttention-2, inexact doubles and a hand-built node. */
SimRequest
goldenOdd()
{
    SimRequest r;
    r.model.name = "";
    r.model.hidden_size = 1024;
    r.model.num_layers = 6;
    r.model.seq_length = 512;
    r.model.num_heads = 16;
    r.model.vocab_size = 32000;
    r.parallel.tensor = 2;
    r.parallel.data = 3;
    r.parallel.pipeline = 3;
    r.parallel.micro_batch_size = 4;
    r.parallel.global_batch_size = 96;
    r.parallel.bucket_bytes = 0.1 + 0.2;
    r.parallel.precision = Precision::FP32;
    r.cluster.node.gpu.name = "H100-SXM5-80GB";
    r.cluster.node.gpu.peak_fp16_flops = 989.4e12;
    r.cluster.node.gpu.peak_fp32_flops = 66.9e12;
    r.cluster.node.gpu.hbm_bandwidth = 3.35e12;
    r.cluster.node.gpu.kernel_launch_overhead = 1.0 / 3.0 * 1e-5;
    r.cluster.node.gpus_per_node = 4;
    r.cluster.node.nvlink_bandwidth = 450e9;
    r.cluster.node.nic_bandwidth = 50e9;
    r.cluster.node.nic_latency = 3.3e-6;
    r.cluster.node.nvlink_latency = 1.7e-6;
    r.cluster.num_nodes = 5;
    r.options.attention = AttentionImpl::FlashAttention2;
    return r;
}

struct GoldenDigests {
    uint64_t request;
    uint64_t cluster;
    uint64_t model;
    uint64_t plan;
    uint64_t options;
    uint64_t group;
};

void
expectDigests(const SimRequest &r, const GoldenDigests &want)
{
    EXPECT_EQ(r.fingerprint(), want.request);
    EXPECT_EQ(r.cluster.fingerprint(), want.cluster);
    EXPECT_EQ(hashValue(r.model), want.model);
    EXPECT_EQ(hashValue(r.parallel), want.plan);
    EXPECT_EQ(hashValue(r.options), want.options);
    EXPECT_EQ(batchGroupKey(r.model, r.parallel, r.cluster, r.options),
              want.group);
}

TEST(WireGolden, DigestsOfDefaultRequest)
{
    expectDigests(goldenDefault(),
                  {0x391402d09b112750ull, 0x60d8cae1145935baull,
                   0x01fc9a0f12590366ull, 0x77a82344c1be4a9aull,
                   0x65b526143cbb3ec1ull, 0x39222b7cec75a874ull});
}

TEST(WireGolden, DigestsOfFlippedRequest)
{
    expectDigests(goldenFlipped(),
                  {0x63d37c45729c6a81ull, 0x7197319537aab365ull,
                   0xbeb480c1a332a4fcull, 0xf0013a4ce150d594ull,
                   0x1089ba241b82afceull, 0xe08443e0fd530bbeull});
}

TEST(WireGolden, DigestsOfOddRequest)
{
    expectDigests(goldenOdd(),
                  {0xb1471cdbf9aba57aull, 0x8c488f9e8003895eull,
                   0x53c300af1013ced4ull, 0xb260a4fba68aadcaull,
                   0x8e706ee728064db6ull, 0xb9e0d2f9de321d4bull});
}

/** Every member key of `v` as a dotted path, in document order. */
void
keyPaths(const json::Value &v, const std::string &prefix,
         std::vector<std::string> *out)
{
    if (v.isObject()) {
        for (const auto &[key, member] : v.members()) {
            out->push_back(prefix + key);
            keyPaths(member, prefix + key + ".", out);
        }
    } else if (v.isArray()) {
        for (size_t i = 0; i < v.items().size(); ++i)
            keyPaths(v.items()[i],
                     prefix + "[" + std::to_string(i) + "].", out);
    }
}

std::vector<std::string>
keyPaths(const json::Value &v)
{
    std::vector<std::string> out;
    keyPaths(v, "", &out);
    return out;
}

std::vector<std::string>
keyPaths(const std::string &text)
{
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::Value::parse(text, &v, &error)) << error;
    return keyPaths(v);
}

/** `prefix` + each key, for splicing sub-schemas into a path list. */
std::vector<std::string>
under(const std::string &prefix, const std::vector<std::string> &keys)
{
    std::vector<std::string> out;
    for (const std::string &key : keys)
        out.push_back(prefix + key);
    return out;
}

std::vector<std::string>
concat(std::initializer_list<std::vector<std::string>> parts)
{
    std::vector<std::string> out;
    for (const std::vector<std::string> &part : parts)
        out.insert(out.end(), part.begin(), part.end());
    return out;
}

const std::vector<std::string> kModelKeys = {
    "name", "hidden_size", "num_layers", "seq_length", "num_heads",
    "vocab_size"};
const std::vector<std::string> kPlanKeys = {
    "tensor", "data", "pipeline", "micro_batch_size",
    "global_batch_size", "schedule", "gradient_bucketing",
    "bucket_bytes", "activation_recompute", "zero_stage", "precision"};
const std::vector<std::string> kGpuKeys = {
    "name", "peak_fp16_flops", "peak_fp32_flops", "hbm_bandwidth",
    "memory_bytes", "kernel_launch_overhead"};
const std::vector<std::string> kOptionsKeys = {
    "fast_mode", "memoize_profiles", "collapse_operators", "attention"};
const std::vector<std::string> kResultKeys = {
    "version", "iteration_seconds", "utilization", "model_flops",
    "bubble_fraction", "time_by_tag", "num_operators", "num_tasks",
    "distinct_operators_profiled", "profiler_calls", "extrapolated",
    "simulated_micro_batches", "total_micro_batches",
    "sim_wall_seconds"};
const std::vector<std::string> kSpecKeys = {
    "max_tensor", "max_data", "max_pipeline", "micro_batch_sizes",
    "min_gpus", "max_gpus", "exact_gpus", "require_memory_fit",
    "global_batch_size", "schedule", "gradient_bucketing",
    "activation_recompute", "precision"};

std::vector<std::string>
clusterKeys(const std::string &prefix)
{
    return concat({{prefix + "node"},
                   under(prefix + "node.",
                         concat({{"gpu"}, under("gpu.", kGpuKeys),
                                 {"gpus_per_node", "nvlink_bandwidth",
                                  "nic_bandwidth", "nic_latency",
                                  "nvlink_latency"}})),
                   under(prefix, {"num_nodes", "bandwidth_effectiveness",
                                  "hierarchical_allreduce"})});
}

TEST(WireGolden, RequestKeyOrder)
{
    const std::vector<std::string> want =
        concat({{"version", "model"},
                under("model.", kModelKeys),
                {"parallel"},
                under("parallel.", kPlanKeys),
                {"cluster"},
                clusterKeys("cluster."),
                {"options"},
                under("options.", kOptionsKeys)});
    EXPECT_EQ(keyPaths(wire::v1::encode(goldenFlipped())), want);
}

TEST(WireGolden, ResultAndEvaluateEnvelopeKeyOrder)
{
    SimulationResult result;
    result.iteration_seconds = 1.5;
    EXPECT_EQ(keyPaths(wire::v1::encode(result)), kResultKeys);

    util::Trace trace;
    trace.label = "POST /v1/evaluate";
    trace.total_us = 12.5;
    trace.dropped_spans = 2;
    trace.events.push_back({"service.compute", 1.0, 10.0, 0});
    EXPECT_EQ(keyPaths(wire::v1::encodeEvaluateResponse(result, &trace)),
              concat({kResultKeys,
                      {"trace", "trace.label", "trace.total_us",
                       "trace.dropped_spans", "trace.spans",
                       "trace.spans.[0].name", "trace.spans.[0].start_us",
                       "trace.spans.[0].dur_us",
                       "trace.spans.[0].depth"}}));
    EXPECT_EQ(keyPaths(wire::v1::encodeEvaluateBatchResponse({result})),
              concat({{"version", "results"},
                      under("results.[0].", kResultKeys)}));
}

TEST(WireGolden, SweepKeyOrder)
{
    EXPECT_EQ(keyPaths(wire::v1::encode(SweepSpec{})), kSpecKeys);

    ExploreResult explored;
    const std::vector<std::string> explore_keys =
        concat({{"plan"}, under("plan.", kPlanKeys), {"result"},
                under("result.", kResultKeys)});
    EXPECT_EQ(keyPaths(wire::v1::encode(explored)), explore_keys);
    EXPECT_EQ(keyPaths(wire::v1::encodeSweepResponse({explored})),
              concat({{"version", "results"},
                      under("results.[0].", explore_keys)}));

    wire::v1::SweepRequest request;
    request.model = goldenDefault().model;
    request.cluster = goldenDefault().cluster;
    const std::vector<std::string> shared =
        concat({{"version", "model"}, under("model.", kModelKeys),
                {"cluster"}, clusterKeys("cluster."), {"options"},
                under("options.", kOptionsKeys)});
    request.plans.push_back(ParallelConfig{});
    EXPECT_EQ(keyPaths(wire::v1::encode(request)),
              concat({shared, {"plans"}, under("plans.[0].", kPlanKeys)}));

    request.use_spec = true;
    request.deadline_ms = 250;
    EXPECT_EQ(keyPaths(wire::v1::encode(request)),
              concat({shared, {"spec"}, under("spec.", kSpecKeys),
                      {"deadline_ms"}}));
}


// ------------------------------------------------------------ property

constexpr uint64_t kPropertySeed = 0x5eed15;
constexpr int kPropertyRounds = 40;

std::string
randomName(Rng &rng)
{
    static const char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        " -_./\"\\\n\t\x01";
    std::string s;
    const int64_t n = rng.uniformInt(0, 16);
    for (int64_t i = 0; i < n; ++i)
        s += kAlphabet[rng.uniformInt(0, sizeof(kAlphabet) - 2)];
    return s;
}

/** Doubles across many magnitudes, both signs, including zero. */
double
randomDouble(Rng &rng)
{
    if (rng.uniformInt(0, 9) == 0)
        return 0.0;
    const double mantissa = rng.uniform(-1.0, 1.0);
    return mantissa * std::pow(10.0, rng.uniformInt(-20, 20));
}

int
randomInt(Rng &rng)
{
    return static_cast<int>(rng.uniformInt(-(int64_t{1} << 31),
                                           (int64_t{1} << 31) - 1));
}

int64_t
randomInt64(Rng &rng)
{
    return rng.uniformInt(-(int64_t{1} << 53), int64_t{1} << 53);
}

bool
randomBool(Rng &rng)
{
    return rng.uniformInt(0, 1) == 1;
}

template <typename E>
E
randomEnum(Rng &rng, int count)
{
    return static_cast<E>(rng.uniformInt(0, count - 1));
}

ModelConfig
randomModel(Rng &rng)
{
    ModelConfig m;
    m.name = randomName(rng);
    m.hidden_size = randomInt64(rng);
    m.num_layers = randomInt64(rng);
    m.seq_length = randomInt64(rng);
    m.num_heads = randomInt64(rng);
    m.vocab_size = randomInt64(rng);
    return m;
}

ParallelConfig
randomPlan(Rng &rng)
{
    ParallelConfig p;
    p.tensor = randomInt(rng);
    p.data = randomInt(rng);
    p.pipeline = randomInt(rng);
    p.micro_batch_size = randomInt(rng);
    p.global_batch_size = randomInt(rng);
    p.schedule = randomEnum<PipelineSchedule>(rng, 2);
    p.gradient_bucketing = randomBool(rng);
    p.bucket_bytes = randomDouble(rng);
    p.activation_recompute = randomBool(rng);
    p.zero_stage = randomInt(rng);
    p.precision = randomEnum<Precision>(rng, 3);
    return p;
}

ClusterSpec
randomCluster(Rng &rng)
{
    ClusterSpec c;
    c.node.gpu.name = randomName(rng);
    c.node.gpu.peak_fp16_flops = randomDouble(rng);
    c.node.gpu.peak_fp32_flops = randomDouble(rng);
    c.node.gpu.hbm_bandwidth = randomDouble(rng);
    c.node.gpu.memory_bytes = randomDouble(rng);
    c.node.gpu.kernel_launch_overhead = randomDouble(rng);
    c.node.gpus_per_node = randomInt(rng);
    c.node.nvlink_bandwidth = randomDouble(rng);
    c.node.nic_bandwidth = randomDouble(rng);
    c.node.nic_latency = randomDouble(rng);
    c.node.nvlink_latency = randomDouble(rng);
    c.num_nodes = randomInt(rng);
    c.bandwidth_effectiveness = randomDouble(rng);
    c.hierarchical_allreduce = randomBool(rng);
    return c;
}

SimOptions
randomOptions(Rng &rng)
{
    SimOptions o;
    o.fast_mode = randomBool(rng);
    o.memoize_profiles = randomBool(rng);
    o.collapse_operators = randomBool(rng);
    o.attention = randomEnum<AttentionImpl>(rng, 3);
    return o;
}

SimRequest
randomRequest(Rng &rng)
{
    SimRequest r;
    r.model = randomModel(rng);
    r.parallel = randomPlan(rng);
    r.cluster = randomCluster(rng);
    r.options = randomOptions(rng);
    return r;
}

SimulationResult
randomResult(Rng &rng)
{
    SimulationResult r;
    r.iteration_seconds = randomDouble(rng);
    r.utilization = randomDouble(rng);
    r.model_flops = randomDouble(rng);
    r.bubble_fraction = randomDouble(rng);
    for (double &t : r.time_by_tag)
        t = randomDouble(rng);
    r.num_operators = static_cast<size_t>(rng.uniformInt(0, 1ll << 53));
    r.num_tasks = static_cast<size_t>(rng.uniformInt(0, 1ll << 53));
    r.distinct_operators_profiled =
        static_cast<size_t>(rng.uniformInt(0, 1ll << 53));
    r.profiler_calls = static_cast<size_t>(rng.uniformInt(0, 1ll << 53));
    r.extrapolated = randomBool(rng);
    r.simulated_micro_batches = randomInt(rng);
    r.total_micro_batches = randomInt(rng);
    r.sim_wall_seconds = randomDouble(rng);
    return r;
}

SweepSpec
randomSpec(Rng &rng)
{
    SweepSpec s;
    s.max_tensor = randomInt(rng);
    s.max_data = randomInt(rng);
    s.max_pipeline = randomInt(rng);
    s.micro_batch_sizes.clear();
    const int64_t n = rng.uniformInt(0, 5);
    for (int64_t i = 0; i < n; ++i)
        s.micro_batch_sizes.push_back(randomInt(rng));
    s.min_gpus = randomInt(rng);
    s.max_gpus = randomInt(rng);
    s.exact_gpus = randomInt(rng);
    s.require_memory_fit = randomBool(rng);
    s.global_batch_size = randomInt(rng);
    s.schedule = randomEnum<PipelineSchedule>(rng, 2);
    s.gradient_bucketing = randomBool(rng);
    s.activation_recompute = randomBool(rng);
    s.precision = randomEnum<Precision>(rng, 3);
    return s;
}

wire::v1::SweepRequest
randomSweepRequest(Rng &rng)
{
    wire::v1::SweepRequest r;
    r.model = randomModel(rng);
    r.cluster = randomCluster(rng);
    r.options = randomOptions(rng);
    r.use_spec = randomBool(rng);
    if (r.use_spec) {
        r.spec = randomSpec(rng);
    } else {
        const int64_t n = rng.uniformInt(0, 3);
        for (int64_t i = 0; i < n; ++i)
            r.plans.push_back(randomPlan(rng));
    }
    r.deadline_ms = randomBool(rng) ? -1 : rng.uniformInt(0, 1 << 30);
    return r;
}

/**
 * SweepSpec has no operator==; its encoding is an exact stand-in
 * (every field is encoded, see WireGolden.SweepKeyOrder, and numbers
 * print in shortest round-trip form).
 */
bool
sameSpec(const SweepSpec &a, const SweepSpec &b)
{
    return wire::v1::encode(a).dump() == wire::v1::encode(b).dump();
}

void
expectSameSweepRequest(const wire::v1::SweepRequest &got,
                       const wire::v1::SweepRequest &want)
{
    EXPECT_EQ(got.model, want.model);
    EXPECT_EQ(got.cluster, want.cluster);
    EXPECT_EQ(got.options, want.options);
    EXPECT_EQ(got.plans, want.plans);
    EXPECT_EQ(got.use_spec, want.use_spec);
    EXPECT_TRUE(sameSpec(got.spec, want.spec));
    EXPECT_EQ(got.deadline_ms, want.deadline_ms);
}

/** Number of object members in `v`, in document order. */
size_t
countMembers(const json::Value &v)
{
    size_t n = 0;
    if (v.isObject()) {
        for (const auto &[key, member] : v.members())
            n += 1 + countMembers(member);
    } else if (v.isArray()) {
        for (const json::Value &item : v.items())
            n += countMembers(item);
    }
    return n;
}

/**
 * A copy of `v` without its `*target`-th member (document order);
 * *dropped receives that member's key.
 */
json::Value
withoutMember(const json::Value &v, size_t *target, std::string *dropped)
{
    if (v.isArray()) {
        json::Value out = json::Value::array();
        for (const json::Value &item : v.items())
            out.push(withoutMember(item, target, dropped));
        return out;
    }
    if (!v.isObject())
        return v;
    json::Value out = json::Value::object();
    for (const auto &[key, member] : v.members()) {
        if ((*target)-- == 0) {
            *dropped = key;
            continue;
        }
        out.set(key, withoutMember(member, target, dropped));
    }
    return out;
}

/** Number of objects in `v` (itself included), in document order. */
size_t
countObjects(const json::Value &v)
{
    size_t n = v.isObject() ? 1 : 0;
    if (v.isObject()) {
        for (const auto &[key, member] : v.members())
            n += countObjects(member);
    } else if (v.isArray()) {
        for (const json::Value &item : v.items())
            n += countObjects(item);
    }
    return n;
}

constexpr const char *kUnknownKey = "zz_not_in_schema";

/** A copy of `v` with kUnknownKey added to its `*target`-th object. */
json::Value
withUnknownKey(const json::Value &v, size_t *target)
{
    if (v.isArray()) {
        json::Value out = json::Value::array();
        for (const json::Value &item : v.items())
            out.push(withUnknownKey(item, target));
        return out;
    }
    if (!v.isObject())
        return v;
    const bool here = (*target)-- == 0;
    json::Value out = json::Value::object();
    for (const auto &[key, member] : v.members())
        out.set(key, withUnknownKey(member, target));
    if (here)
        out.set(kUnknownKey, int64_t{7});
    return out;
}

/** Every single-member deletion of `doc` fails `decode`, naming it. */
template <typename Decode>
void
expectEveryDropNamed(const json::Value &doc, Decode decode,
                     std::initializer_list<std::string_view> optional = {})
{
    const size_t members = countMembers(doc);
    ASSERT_GT(members, 0u);
    for (size_t i = 0; i < members; ++i) {
        size_t target = i;
        std::string dropped;
        const json::Value broken = withoutMember(doc, &target, &dropped);
        std::string error;
        const bool ok = decode(broken, &error);
        if (std::find(optional.begin(), optional.end(), dropped) !=
            optional.end()) {
            EXPECT_TRUE(ok) << dropped << ": " << error;
            continue;
        }
        EXPECT_FALSE(ok) << "dropping '" << dropped << "' still decodes";
        EXPECT_NE(error.find("'" + dropped + "'"), std::string::npos)
            << "dropping '" << dropped << "': " << error;
    }
}

/** An unknown key in any object of `doc` fails a strict `decode`. */
template <typename Decode>
void
expectUnknownKeyRejectedEverywhere(const json::Value &doc, Decode decode)
{
    const size_t objects = countObjects(doc);
    for (size_t i = 0; i < objects; ++i) {
        size_t target = i;
        const json::Value extended = withUnknownKey(doc, &target);
        std::string error;
        EXPECT_FALSE(decode(extended, &error)) << "object " << i;
        EXPECT_NE(error.find(std::string("unknown field '") + kUnknownKey +
                             "'"),
                  std::string::npos)
            << "object " << i << ": " << error;
    }
}

TEST(WireProperty, EvaluateCodecsRoundTripAndNameDroppedFields)
{
    Rng rng(kPropertySeed);
    for (int round = 0; round < kPropertyRounds; ++round) {
        const SimRequest request = randomRequest(rng);
        const json::Value doc = wire::v1::encode(request);
        SimRequest decoded;
        std::string error;
        ASSERT_TRUE(wire::v1::decode(doc.dump(), &decoded, &error))
            << error;
        EXPECT_EQ(decoded, request);
        EXPECT_EQ(decoded.fingerprint(), request.fingerprint());
        expectEveryDropNamed(doc, [](const json::Value &v,
                                     std::string *e) {
            SimRequest out;
            return wire::v1::decode(v, &out, e);
        });

        const SimulationResult result = randomResult(rng);
        const json::Value result_doc = wire::v1::encode(result);
        SimulationResult decoded_result;
        ASSERT_TRUE(wire::v1::decode(result_doc.dump(), &decoded_result,
                                     &error))
            << error;
        EXPECT_EQ(decoded_result, result);
        expectEveryDropNamed(result_doc, [](const json::Value &v,
                                            std::string *e) {
            SimulationResult out;
            return wire::v1::decode(v, &out, e);
        });
    }
}

TEST(WireProperty, EvaluateCodecIgnoresUnknownKeysAtEveryLevel)
{
    Rng rng(kPropertySeed + 1);
    for (int round = 0; round < kPropertyRounds; ++round) {
        const SimRequest request = randomRequest(rng);
        const json::Value doc = wire::v1::encode(request);
        const size_t objects = countObjects(doc);
        ASSERT_EQ(objects, 7u); // envelope, model, plan, cluster,
                                // node, gpu, options
        for (size_t i = 0; i < objects; ++i) {
            size_t target = i;
            const std::string body = withUnknownKey(doc, &target).dump();
            SimRequest decoded;
            bool want_trace = true;
            int64_t deadline_ms = 0;
            net::HttpResponse error_response;
            ASSERT_TRUE(wire::v1::decodeEvaluateRequest(
                body, &decoded, &want_trace, &deadline_ms,
                &error_response))
                << "object " << i << ": " << error_response.body;
            EXPECT_EQ(decoded, request);
            EXPECT_FALSE(want_trace);
            EXPECT_EQ(deadline_ms, -1);
        }
    }
}

TEST(WireProperty, SweepCodecsRoundTripNameDroppedFieldsAndAreStrict)
{
    Rng rng(kPropertySeed + 2);
    for (int round = 0; round < kPropertyRounds; ++round) {
        const SweepSpec spec = randomSpec(rng);
        const json::Value spec_doc = wire::v1::encode(spec);
        SweepSpec decoded_spec;
        std::string error;
        ASSERT_TRUE(wire::v1::decode(spec_doc, &decoded_spec, &error))
            << error;
        EXPECT_TRUE(sameSpec(decoded_spec, spec));
        const auto decode_spec = [](const json::Value &v,
                                    std::string *e) {
            SweepSpec out;
            return wire::v1::decode(v, &out, e);
        };
        expectEveryDropNamed(spec_doc, decode_spec);
        expectUnknownKeyRejectedEverywhere(spec_doc, decode_spec);

        ExploreResult explored;
        explored.plan = randomPlan(rng);
        explored.sim = randomResult(rng);
        const json::Value explored_doc = wire::v1::encode(explored);
        ExploreResult decoded_explored;
        ASSERT_TRUE(wire::v1::decode(explored_doc, &decoded_explored,
                                     &error))
            << error;
        EXPECT_EQ(decoded_explored.plan, explored.plan);
        EXPECT_EQ(decoded_explored.sim, explored.sim);
        const auto decode_explored = [](const json::Value &v,
                                        std::string *e) {
            ExploreResult out;
            return wire::v1::decode(v, &out, e);
        };
        expectEveryDropNamed(explored_doc, decode_explored);
        expectUnknownKeyRejectedEverywhere(explored_doc, decode_explored);

        const wire::v1::SweepRequest request = randomSweepRequest(rng);
        const json::Value request_doc = wire::v1::encode(request);
        wire::v1::SweepRequest decoded_request;
        ASSERT_TRUE(wire::v1::decode(request_doc, &decoded_request,
                                     &error))
            << error;
        expectSameSweepRequest(decoded_request, request);
        const auto decode_request = [](const json::Value &v,
                                       std::string *e) {
            wire::v1::SweepRequest out;
            return wire::v1::decode(v, &out, e);
        };
        expectEveryDropNamed(request_doc, decode_request,
                             {"deadline_ms"});
        expectUnknownKeyRejectedEverywhere(request_doc, decode_request);
    }
}

} // namespace
} // namespace vtrain
