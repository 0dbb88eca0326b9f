/**
 * @file
 * Operator-granularity execution graph (paper Sec. III-B).
 *
 * A layer-node represents one computation or communication operator;
 * edges encode execution-order dependencies.  vTrain simulates one
 * *representative GPU per pipeline stage*: all t tensor-parallel ranks
 * of a stage execute identical kernel streams in lockstep, and all d
 * data-parallel replicas are symmetric, so a p-device graph carries
 * the full timing information of the t*d*p-GPU system while the
 * communication operators' latencies are computed from the full
 * (t, d, p) topology.
 *
 * Construction is two-phase: addCompute/addComm/addEdge append nodes
 * and edges, then finalize() freezes the edge list into a CSR
 * adjacency that task-graph expansion iterates without per-node heap
 * indirection.  GraphBuilder finalizes the graphs it returns.
 *
 * Id contract.  The engine's FIFO pushes every in-degree-0 node in id
 * order and then each finished node's children in CSR order, which
 * is the order addEdge() was called per source node.  Node ids
 * therefore affect memory layout, not results, as long as a node's
 * children keep their order and the root set is fixed.  GraphBuilder
 * emits exactly one root and allocates ids in pipeline wave order
 * (graph/builder.h), so consecutive FIFO pops touch nearby records.
 */
#ifndef VTRAIN_GRAPH_OP_GRAPH_H
#define VTRAIN_GRAPH_OP_GRAPH_H

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/collective.h"
#include "kernels/kernel.h"
#include "profiling/operator.h"

namespace vtrain {

/** Whether a node is a computation or a communication operator. */
enum class OpNodeType : uint8_t {
    Compute,
    Comm,
};

/** One layer-node of the operator-granularity graph. */
struct OpNode {
    OpNodeType type = OpNodeType::Compute;
    StreamKind stream = StreamKind::Compute;

    /** Owning device (pipeline-stage id of the representative GPU). */
    int16_t device = 0;

    /** Micro-batch index, or -1 for per-iteration ops (AR, WU). */
    int32_t micro_batch = -1;

    /** For compute nodes: index into OpGraph::descs(). */
    int32_t desc_id = -1;

    /** For comm nodes: the resolved communication op. */
    CommKind comm_kind = CommKind::TpAllReduce;

    /** For comm nodes: latency filled in at build time, seconds. */
    double comm_latency = 0.0;

    /** For comm nodes: per-GPU payload, bytes.  Retained so a graph
     *  template can re-derive the latency under a different cluster
     *  or data-parallel degree (see graph/template.h). */
    double comm_bytes = 0.0;

    /** For comm nodes: worker count / scope (kept for the testbed). */
    int32_t comm_workers = 1;
    CommScope comm_scope = CommScope::IntraNode;
    int32_t comm_concurrent_groups = 1;
};

/** The DAG of operators for one training iteration. */
class OpGraph
{
  public:
    using NodeId = int32_t;

    /**
     * Interns a computation descriptor, deduplicated by OperatorKey.
     * Callers emitting the same operator many times (every layer of
     * every micro-batch) should intern once and add nodes by id.
     */
    int32_t internDesc(const OpDesc &desc);

    /** Adds a computation node for a previously interned descriptor. */
    NodeId addCompute(int16_t device, int32_t micro_batch,
                      int32_t desc_id);

    /** Adds a computation node; desc is deduplicated by key. */
    NodeId addCompute(int16_t device, int32_t micro_batch,
                      const OpDesc &desc)
    {
        return addCompute(device, micro_batch, internDesc(desc));
    }

    /** Adds a communication node with a precomputed latency. */
    NodeId addComm(int16_t device, int32_t micro_batch, CommKind kind,
                   double latency, int32_t workers, CommScope scope,
                   int32_t concurrent_groups, StreamKind stream,
                   double bytes = 0.0);

    /** Adds a dependency edge: `to` cannot start before `from` ends. */
    void addEdge(NodeId from, NodeId to);

    /** Pre-sizes the node and edge storage (builder fast path). */
    void reserve(size_t nodes, size_t edges);

    /**
     * Freezes the edge list into the CSR adjacency served by
     * childBegin()/childEnd().  Adding further edges un-finalizes the
     * graph; finalize again before expanding.
     */
    void finalize();

    bool finalized() const { return finalized_; }

    const std::vector<OpNode> &nodes() const { return nodes_; }

    /** Children of node u as a CSR slice (requires finalize()). */
    const NodeId *childBegin(NodeId u) const
    {
        return child_list_.data() + child_offsets_[u];
    }
    const NodeId *childEnd(NodeId u) const
    {
        return child_list_.data() + child_offsets_[u + 1];
    }

    const std::vector<OpDesc> &descs() const { return descs_; }
    const OpDesc &descOf(const OpNode &node) const;

    size_t numNodes() const { return nodes_.size(); }
    size_t numEdges() const { return edges_.size(); }

    int numDevices() const { return num_devices_; }
    void setNumDevices(int n) { num_devices_ = n; }

    /** @return true iff the graph has no cycle (checked by tests). */
    bool isAcyclic() const;

  private:
    std::vector<OpNode> nodes_;
    std::vector<std::pair<NodeId, NodeId>> edges_;
    std::vector<int32_t> child_offsets_;
    std::vector<NodeId> child_list_;
    bool finalized_ = false;
    std::vector<OpDesc> descs_;
    std::unordered_map<OperatorKey, int32_t, OperatorKeyHash> desc_index_;
    int num_devices_ = 1;
};

} // namespace vtrain

#endif // VTRAIN_GRAPH_OP_GRAPH_H
