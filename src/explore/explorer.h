/**
 * @file
 * Parallel design-space exploration driver (paper Sec. III-F, V-A).
 *
 * Each simulation point is independent, so the sweep parallelizes
 * across CPU cores; the paper reports a full MT-NLG sweep in under
 * 200 seconds on one CPU server.
 *
 * Sweeps route through a SimService held for the Explorer's lifetime:
 * the worker pool is spawned once instead of per sweep() call, and
 * every simulated point lands in the service's result cache, so
 * overlapping or repeated sweeps (iterative DSE, Chinchilla planning,
 * throughput profiling) only pay for points they have not seen before.
 * Within one sweep the service groups structurally identical plans
 * (same task-graph topology, different durations — e.g. a sweep over
 * the data-parallel degree or the cluster interconnect) into a single
 * batched pass, so a K-point group costs one graph
 * template plus one K-wide engine pass instead of K simulations.
 */
#ifndef VTRAIN_EXPLORE_EXPLORER_H
#define VTRAIN_EXPLORE_EXPLORER_H

#include <memory>
#include <vector>

#include "explore/design_space.h"
#include "serve/sim_service.h"
#include "sim/simulator.h"

namespace vtrain {

class SweepCoordinator;

/** One evaluated design point. */
struct ExploreResult {
    ParallelConfig plan;
    SimulationResult sim;
};

/** Sweeps plan lists through the simulator. */
class Explorer
{
  public:
    /**
     * @param cluster   target cluster.
     * @param options   simulator options shared by all points.
     * @param n_threads worker threads (0 = hardware concurrency).
     */
    explicit Explorer(ClusterSpec cluster, SimOptions options = {},
                      size_t n_threads = 0);

    // Out of line for the forward-declared SweepCoordinator member.
    ~Explorer();
    Explorer(Explorer &&) noexcept;
    Explorer &operator=(Explorer &&) noexcept;

    /** Simulates every plan; results keep the plans' order. */
    std::vector<ExploreResult> sweep(
        const ModelConfig &model,
        const std::vector<ParallelConfig> &plans) const;

    /** Convenience: enumerate + sweep. */
    std::vector<ExploreResult> sweep(const ModelConfig &model,
                                     const SweepSpec &spec) const;

    const ClusterSpec &cluster() const { return cluster_; }

    /** The underlying request service (persistent pool + cache). */
    SimService &service() const { return *service_; }

    /**
     * Remote-backend mode: fan sweep() out to shard servers through
     * `coordinator` instead of computing locally.  Merged results are
     * bit-identical to the local path (modulo sim_wall_seconds), so
     * callers do not change.  Pass nullptr to return to local compute.
     */
    void setRemoteBackend(std::unique_ptr<SweepCoordinator> coordinator);

    /**
     * Convenience over setRemoteBackend: builds a default-configured
     * coordinator over "host:port" endpoint strings.  Throws
     * std::invalid_argument on a malformed endpoint.
     */
    void setRemoteShards(const std::vector<std::string> &endpoints);

    /** The active coordinator, or nullptr when computing locally. */
    SweepCoordinator *remoteBackend() const { return remote_.get(); }

  private:
    ClusterSpec cluster_;
    SimOptions options_;
    // unique_ptr so the (logically const) sweep entry points can use
    // the mutating service API; the Explorer is therefore move-only.
    std::unique_ptr<SimService> service_;
    std::unique_ptr<SweepCoordinator> remote_;
};

/** @return index of the fastest plan, or -1 if `results` is empty. */
int bestByIterationTime(const std::vector<ExploreResult> &results);

/** @return index of the plan with the best utilization, or -1. */
int bestByUtilization(const std::vector<ExploreResult> &results);

} // namespace vtrain

#endif // VTRAIN_EXPLORE_EXPLORER_H
