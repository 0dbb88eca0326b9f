/**
 * @file
 * Task-granularity execution graph (paper Sec. III-D, Fig. 4 step 4).
 *
 * Expansion replaces every computation operator of the
 * operator-granularity graph with its CUDA kernel sequence from the
 * operator-to-task lookup table, while honouring all inter-operator
 * dependencies; communication operators become single tasks carrying
 * their modelled latency.
 *
 * Storage is split by volatility: task *durations* (the only values
 * that change when kernels are re-profiled or comm parameters move)
 * live in a per-instance array, while the structural remainder —
 * per-task device/stream/tag metadata and the CSR dependency arrays —
 * lives in an immutable, shared Topology, so graphs that differ only
 * in durations share one.
 */
#ifndef VTRAIN_GRAPH_TASK_GRAPH_H
#define VTRAIN_GRAPH_TASK_GRAPH_H

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/op_graph.h"
#include "profiling/op_task_table.h"

namespace vtrain {

/** Category of a task, for time accounting. */
enum class TaskTag : uint8_t {
    Compute = 0,
    TpAllReduce = 1,
    DpAllReduce = 2,
    PipeSendRecv = 3,
};

constexpr int kNumTaskTags = 4;

/** @return the accounting tag of the tasks `node` expands into. */
TaskTag taskTagOf(const OpNode &node);

/**
 * Duration-perturbation hook.
 *
 * The vTrain predictor uses the identity perturbation; the testbed
 * surrogate (src/testbed/) injects the measurement effects the paper
 * identifies as its error sources (Sec. IV).  Perturbation happens at
 * expansion time so that every *instance* of a shared lookup-table
 * entry can be perturbed independently.
 */
class Perturber
{
  public:
    virtual ~Perturber() = default;

    /** Perturbs one compute-kernel duration. */
    virtual double perturbCompute(double duration,
                                  const OpNode &node) const = 0;

    /** Perturbs one communication-op latency. */
    virtual double perturbComm(double latency,
                               const OpNode &node) const = 0;
};

/** Options controlling task-graph expansion. */
struct ExpandOptions {
    /**
     * Collapse each operator's kernel chain into a single task (an
     * ablation; timing-equivalent because kernels within an operator
     * are sequential on one stream).
     */
    bool collapse_operators = false;

    /** Optional duration perturbation (testbed surrogate). */
    const Perturber *perturber = nullptr;
};

/** Flat CSR task DAG consumed by the simulation engine. */
class TaskGraph
{
  public:
    /** Structural (duration-independent) attributes of one task. */
    struct TaskMeta {
        int32_t device = 0;
        StreamKind stream = StreamKind::Compute;
        TaskTag tag = TaskTag::Compute;
    };

    /**
     * The immutable structural part of a task graph: per-task
     * metadata plus the CSR dependency arrays.  Shared (never copied)
     * between a graph and every graph fromParts() assembles from it;
     * only tests pair new durations with a shared topology this way.
     * Graph templates hold an OpTopology (graph/template.h) instead.
     */
    struct Topology {
        std::vector<TaskMeta> meta;
        std::vector<int32_t> child_offsets{0}; //!< size numTasks()+1
        std::vector<int32_t> child_list;
        std::vector<int32_t> in_degree;
        int num_devices = 1;
    };

    TaskGraph() : topo_(emptyTopology()) {}

    /** Incremental construction of arbitrary task DAGs (tests and
     *  custom frontends; the vTrain pipeline uses expand()). */
    class Builder
    {
      public:
        /** Adds a task and returns its id. */
        int32_t addTask(double duration, int32_t device,
                        StreamKind stream = StreamKind::Compute,
                        TaskTag tag = TaskTag::Compute);

        /** Adds a dependency edge u -> v. */
        void addEdge(int32_t u, int32_t v);

        /** Finalizes into a CSR TaskGraph. */
        TaskGraph build(int num_devices) &&;

      private:
        std::vector<double> durations_;
        std::vector<TaskMeta> metas_;
        std::vector<std::pair<int32_t, int32_t>> edges_;
    };

    /** Expands a finalized operator graph via the lookup table. */
    static TaskGraph expand(const OpGraph &ops, OperatorToTaskTable &table,
                            const ExpandOptions &options = {});

    /** Assembles a graph from a duration array and a shared topology
     *  (tests re-time one structure this way). */
    static TaskGraph fromParts(std::vector<double> durations,
                               std::shared_ptr<const Topology> topology);

    const std::vector<double> &durations() const { return durations_; }
    const std::vector<TaskMeta> &metas() const { return topo_->meta; }

    size_t numTasks() const { return durations_.size(); }
    size_t numEdges() const { return topo_->child_list.size(); }
    int numDevices() const { return topo_->num_devices; }

    /** Children of task u, as a CSR slice. */
    const int32_t *childBegin(int32_t u) const
    {
        return topo_->child_list.data() + topo_->child_offsets[u];
    }
    const int32_t *childEnd(int32_t u) const
    {
        return topo_->child_list.data() + topo_->child_offsets[u + 1];
    }

    /** Initial dependency (reference) count of each task. */
    const std::vector<int32_t> &inDegree() const
    {
        return topo_->in_degree;
    }

    /** The shared structural part (see Topology). */
    const std::shared_ptr<const Topology> &topology() const
    {
        return topo_;
    }

  private:
    static const std::shared_ptr<const Topology> &emptyTopology();

    std::vector<double> durations_;
    std::shared_ptr<const Topology> topo_;
};

} // namespace vtrain

#endif // VTRAIN_GRAPH_TASK_GRAPH_H
