/**
 * @file
 * Canonical simulation request for the serve layer.
 *
 * A SimRequest bundles everything the simulator needs to produce a
 * SimulationResult — model, plan, cluster and simulator options — into
 * one value type with a canonical 64-bit fingerprint.  Two requests
 * with equal fields always produce the same fingerprint, in any
 * process on any platform, so the fingerprint can key the result
 * cache, dedupe in-flight work, and travel across a process boundary
 * alongside its JSON encoding (serve/wire.h).
 */
#ifndef VTRAIN_SERVE_SIM_REQUEST_H
#define VTRAIN_SERVE_SIM_REQUEST_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"
#include "sim/simulator.h"

namespace vtrain {

/** One complete "simulate this training configuration" query. */
struct SimRequest {
    ModelConfig model;
    ParallelConfig parallel;
    ClusterSpec cluster;
    SimOptions options;

    /**
     * Canonical 64-bit request key (versioned, domain-separated).
     * Equal requests fingerprint equally; see cacheable() for the one
     * caveat around perturbers.
     */
    uint64_t fingerprint() const;

    /**
     * Whether the request may be answered from / stored into the
     * result cache.  A non-null perturber makes the simulation
     * potentially nondeterministic and its identity process-local, so
     * such requests always recompute.
     */
    bool cacheable() const { return options.perturber == nullptr; }

    /** Validity check of the bundled plan (never exits). */
    bool valid(std::string *why = nullptr) const
    {
        return parallel.valid(model, cluster, why);
    }

    /** A short "model plan on N GPUs" descriptor. */
    std::string brief() const;

    bool operator==(const SimRequest &) const = default;
};

/**
 * One request per plan of a sweep over (model, cluster, options):
 * result[i] simulates plans[i].
 */
std::vector<SimRequest> sweepRequests(const ModelConfig &model,
                                      const ClusterSpec &cluster,
                                      const SimOptions &options,
                                      const std::vector<ParallelConfig> &plans);

/**
 * SimRequest's wire keys (inside the versioned envelope) and
 * fingerprint order (see util/hash.h).
 */
template <typename Visit>
void
fields(Visit &&visit, const SimRequest *)
{
    visit("model", &SimRequest::model);
    visit("parallel", &SimRequest::parallel);
    visit("cluster", &SimRequest::cluster);
    visit("options", &SimRequest::options);
}

} // namespace vtrain

/** Enables SimRequest keys in std::unordered_map / std::unordered_set. */
template <> struct std::hash<vtrain::SimRequest> {
    size_t operator()(const vtrain::SimRequest &r) const
    {
        return static_cast<size_t>(r.fingerprint());
    }
};

#endif // VTRAIN_SERVE_SIM_REQUEST_H
