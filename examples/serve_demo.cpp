/**
 * @file
 * Serving-API walkthrough: answer training-plan queries through the
 * concurrent SimService instead of driving the Simulator directly.
 *
 * Shows the two request paths (one request on the calling thread, a
 * batch with dedup that also spreads over the worker pool), the effect
 * of the result cache on a repeated sweep, and the JSON wire format
 * that lets requests cross process boundaries.
 *
 *   ./serve_demo [n_threads]
 */
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "vtrain/vtrain.h"

using namespace vtrain;

int
main(int argc, char **argv)
{
    setVerbose(false);
    const size_t n_threads =
        argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 0;

    // One service holds the worker pool, the sharded result cache and
    // the in-flight table for its whole lifetime.
    SimService::Options options;
    options.n_threads = n_threads;
    SimService service(std::move(options));
    std::printf("SimService up with %zu worker threads\n\n",
                service.numThreads());

    // --- a batch of GPT-3 175B plans on 1,024 A100s ----------------
    const ModelConfig model = zoo::gpt3_175b();
    const ClusterSpec cluster = makeCluster(1024);
    std::vector<SimRequest> batch;
    for (const auto &[t, d, p] :
         {std::array{8, 16, 8}, std::array{8, 8, 16},
          std::array{4, 16, 16}, std::array{8, 4, 32}}) {
        SimRequest r;
        r.model = model;
        r.cluster = cluster;
        r.parallel.tensor = t;
        r.parallel.data = d;
        r.parallel.pipeline = p;
        r.parallel.micro_batch_size = 1;
        r.parallel.global_batch_size = 1536;
        batch.push_back(std::move(r));
    }
    // Duplicates inside a batch are simulated once and fanned out.
    batch.push_back(batch.front());

    TextTable table({"Request", "Iter (s)", "Util", "Fingerprint"});
    const auto results = service.evaluateBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
        char fp[24];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(
                          batch[i].fingerprint()));
        table.addRow({batch[i].parallel.brief(),
                      fmtDouble(results[i].iteration_seconds, 3),
                      fmtPercent(results[i].utilization), fp});
    }
    std::printf("cold batch of %zu requests:\n", batch.size());
    table.print(std::cout);

    // --- the same batch again: answered from the cache -------------
    (void)service.evaluateBatch(batch);
    const ServiceStats stats = service.stats();
    std::printf("\nafter the warm repeat:\n");
    std::printf("  requests=%llu computed=%llu batch_dedups=%llu\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.computed),
                static_cast<unsigned long long>(stats.batch_dedups));
    std::printf("  cache: hits=%llu misses=%llu hit_rate=%.0f%% "
                "entries=%zu\n",
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses),
                100.0 * stats.cache.hitRate(), stats.cache.entries);

    // --- one request: answered on the calling thread --------------
    const SimulationResult single = service.evaluate(batch[1]);
    std::printf("\nsingle request (cache hit): iter=%.3fs\n",
                single.iteration_seconds);

    // --- JSON: requests and results cross process boundaries -------
    const std::string wire = wire::v1::encode(batch[0]).dump();
    SimRequest decoded;
    std::string error;
    if (!wire::v1::decode(wire, &decoded, &error)) {
        std::fprintf(stderr, "decode failed: %s\n", error.c_str());
        return 1;
    }
    std::printf("\nJSON round-trip: %zu bytes, fingerprints %s\n",
                wire.size(),
                decoded.fingerprint() == batch[0].fingerprint()
                    ? "match"
                    : "DIFFER");
    std::printf("result payload:\n%s\n",
                wire::v1::encode(results.front()).dump().c_str());
    return 0;
}
