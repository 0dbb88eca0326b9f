#include "explore/explorer.h"

#include <stdexcept>
#include <utility>

#include "serve/sweep_coordinator.h"

namespace vtrain {

Explorer::Explorer(ClusterSpec cluster, SimOptions options,
                   size_t n_threads)
    : cluster_(std::move(cluster)), options_(options)
{
    SimService::Options service_options;
    service_options.n_threads = n_threads;
    service_ = std::make_unique<SimService>(std::move(service_options));
}

Explorer::~Explorer() = default;
Explorer::Explorer(Explorer &&) noexcept = default;
Explorer &Explorer::operator=(Explorer &&) noexcept = default;

void
Explorer::setRemoteBackend(std::unique_ptr<SweepCoordinator> coordinator)
{
    remote_ = std::move(coordinator);
}

void
Explorer::setRemoteShards(const std::vector<std::string> &endpoints)
{
    SweepCoordinator::Options options;
    for (const std::string &endpoint : endpoints) {
        const size_t colon = endpoint.rfind(':');
        if (colon == std::string::npos || colon + 1 >= endpoint.size())
            throw std::invalid_argument("shard endpoint '" + endpoint +
                                        "' is not host:port");
        const long port = std::stol(endpoint.substr(colon + 1));
        if (port <= 0 || port > 65535)
            throw std::invalid_argument("shard endpoint '" + endpoint +
                                        "' has an invalid port");
        options.shards.push_back(
            ShardEndpoint{endpoint.substr(0, colon),
                          static_cast<uint16_t>(port)});
    }
    setRemoteBackend(std::make_unique<SweepCoordinator>(options));
}

std::vector<ExploreResult>
Explorer::sweep(const ModelConfig &model,
                const std::vector<ParallelConfig> &plans) const
{
    // Remote mode: the coordinator partitions the plans across the
    // shard fleet and merges; same results, other boxes' CPUs.
    if (remote_)
        return remote_->sweep(
            sweepRequests(model, cluster_, options_, plans));

    // evaluateBatch dedups repeated plans, answers seen points from
    // the cache, and groups structurally identical new points into
    // batched passes (one template + one K-wide engine pass per
    // group).  This thread computes too, so the sweep runs on at most
    // n_threads threads; with one, it runs on this thread alone.
    std::vector<SimulationResult> sims = service_->evaluateBatch(
        sweepRequests(model, cluster_, options_, plans));

    std::vector<ExploreResult> results(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        results[i].plan = plans[i];
        results[i].sim = std::move(sims[i]);
    }
    return results;
}

std::vector<ExploreResult>
Explorer::sweep(const ModelConfig &model, const SweepSpec &spec) const
{
    return sweep(model, enumeratePlans(model, cluster_, spec));
}

int
bestByIterationTime(const std::vector<ExploreResult> &results)
{
    int best = -1;
    for (size_t i = 0; i < results.size(); ++i) {
        if (best < 0 || results[i].sim.iteration_seconds <
                            results[best].sim.iteration_seconds)
            best = static_cast<int>(i);
    }
    return best;
}

int
bestByUtilization(const std::vector<ExploreResult> &results)
{
    int best = -1;
    for (size_t i = 0; i < results.size(); ++i) {
        if (best < 0 ||
            results[i].sim.utilization > results[best].sim.utilization)
            best = static_cast<int>(i);
    }
    return best;
}

} // namespace vtrain
