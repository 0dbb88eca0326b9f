/**
 * @file
 * The traced runs' simulation path: the same sequence of public layer
 * calls the library makes for an evaluate or a sweep (enumeration and
 * grouping, GraphBuilder::build, GraphTemplate::capture over an
 * OperatorToTaskTable, runSimulation, retimeDurations, schedule(),
 * replaySimulation / replayBatch), each wrapped in a ledger span.  The
 * library itself carries no benchmark tracing; instead every traced
 * run checks that this path's results are bit-identical to the
 * library's own (Explorer::sweep or SimService::evaluate).
 */
#ifndef PERFBENCH_REPLICA_H
#define PERFBENCH_REPLICA_H

#include <cstdint>
#include <set>
#include <vector>

#include "common.h"
#include "graph/template.h"
#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"
#include "sim/simulator.h"

namespace perfbench {

/** Work counts of the replica path, summed over its calls. */
struct ReplicaCounts {
    uint64_t groups = 0;           //!< distinct batch-group keys
    uint64_t captures = 0;         //!< templates captured
    uint64_t capture_tasks = 0;    //!< tasks over captured templates
    uint64_t retimes = 0;          //!< retimeDurations() calls
    uint64_t replay_points = 0;    //!< duration vectors replayed
    uint64_t replay_tasks = 0;     //!< tasks over replayed vectors
    uint64_t profiler_calls = 0;   //!< Profiler::profileOperator()
    uint64_t table_entries = 0;    //!< distinct ops, summed per table
    std::set<uint64_t> fingerprints; //!< distinct templates fetched
};

/** Shared state of one replica sweep (one service's worth). */
struct ReplicaContext {
    vtrain::ClusterSpec cluster;
    vtrain::SimOptions options;
    vtrain::GraphTemplateCache *templates = nullptr;
    Ledger *ledger = nullptr;
    ReplicaCounts counts;
};

/** Simulator::simulateIteration through the public layer calls. */
vtrain::SimulationResult
replicaSimulate(ReplicaContext &ctx, const vtrain::ModelConfig &model,
                const vtrain::ParallelConfig &plan);

/**
 * SimService::evaluateBatch (as Explorer::sweep drives it) through the
 * public layer calls: plans grouped by batchGroupKey, groups sliced
 * to the service's 64-plan units, multi-plan units simulated as one
 * batched replay, single plans per plan.  Results in `plans` order.
 */
std::vector<vtrain::SimulationResult>
replicaSweep(ReplicaContext &ctx, const vtrain::ModelConfig &model,
             const std::vector<vtrain::ParallelConfig> &plans);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_H
