/**
 * @file
 * Google-benchmark microbenchmarks of the serve layer's per-request
 * pieces (src/serve/): request fingerprinting, the JSON wire format,
 * and a result-cache hit.
 *
 * Whole sweeps through SimService::evaluateBatch are timed end to end
 * by perfbench's mtnlg_dse and mtnlg_batch workloads, not here.
 */
#include <benchmark/benchmark.h>

#include "vtrain/vtrain.h"

namespace {

using namespace vtrain;

/** One request from a cheap (3.6B model) design-space sweep. */
SimRequest
scaledModelRequest()
{
    SweepSpec spec;
    spec.global_batch_size = 512;
    spec.max_data = 16;
    spec.micro_batch_sizes = {1, 2, 4};
    SimRequest r;
    r.model = zoo::scaled3_6b();
    r.cluster = makeCluster(64);
    r.parallel = enumeratePlans(r.model, r.cluster, spec).front();
    return r;
}

/** Canonical fingerprint cost (hashes the whole request). */
void
BM_RequestFingerprint(benchmark::State &state)
{
    const SimRequest request = scaledModelRequest();
    for (auto _ : state)
        benchmark::DoNotOptimize(request.fingerprint());
}
BENCHMARK(BM_RequestFingerprint);

/** JSON wire format: encode + decode one request. */
void
BM_RequestJsonRoundTrip(benchmark::State &state)
{
    const SimRequest request = scaledModelRequest();
    for (auto _ : state) {
        const std::string wire = wire::v1::encode(request).dump();
        SimRequest decoded;
        const bool ok = wire::v1::decode(wire, &decoded);
        benchmark::DoNotOptimize(ok);
        benchmark::DoNotOptimize(decoded.parallel.tensor);
    }
}
BENCHMARK(BM_RequestJsonRoundTrip);

/** Sharded cache under pure hit load from one thread. */
void
BM_ResultCacheGetHit(benchmark::State &state)
{
    ResultCache cache;
    SimulationResult value;
    value.iteration_seconds = 1.0;
    for (uint64_t k = 0; k < 1024; ++k)
        cache.put(k, value);
    uint64_t key = 0;
    for (auto _ : state) {
        SimulationResult out;
        benchmark::DoNotOptimize(cache.get(key, &out));
        // A caller reads the copy: keep an inlined get() from
        // dropping it as a dead store.
        benchmark::DoNotOptimize(out);
        key = (key + 1) & 1023;
    }
}
BENCHMARK(BM_ResultCacheGetHit);

} // namespace

BENCHMARK_MAIN();
