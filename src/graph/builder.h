/**
 * @file
 * Operator-granularity graph construction (paper Sec. III-B, Fig. 8).
 *
 * Given a model, a (t, d, p, m) plan and a cluster, the builder emits
 * the per-stage operator sequences and inserts the communication
 * operators each parallelism dimension requires:
 *
 *  - tensor parallelism: an intra-node All-Reduce after every MHA and
 *    FFN block, in both the forward and backward pass (Fig. 6); with
 *    activation recomputation the re-executed forward inserts its
 *    All-Reduces again;
 *  - pipeline parallelism: a P2P Send-Receive at every stage boundary,
 *    with intra-GPU ordering chains that realize the GPipe or 1F1B
 *    schedule (Fig. 7) and strict cross-stage micro-batch ordering;
 *  - data parallelism: gradient All-Reduce, either one per gradient
 *    bucket overlapped with the remaining backward pass (Fig. 5(a),
 *    PyTorch-DDP-style bucketing) or a single one at the end
 *    (Fig. 5(b)); the weight-update operator waits for all of them.
 *
 * Node ids follow pipeline wave order.  A FIFO over the block graph
 * (one block per (stage, micro-batch, direction); edges are each
 * stage's schedule chain and the P2P hops between neighbouring
 * stages) fixes the order blocks are created in, and each P2P send is
 * created right after its source block; the per-stage gradient
 * reduction and weight update come last.  Blocks the engine's FIFO
 * runs concurrently therefore sit close together in id space, which
 * keeps the op-FIFO walk, the run-schedule derivation and the
 * kernel-level expansion cache- and TLB-local.
 *
 * The ids are a layout choice only.  Edges are added in a fixed phase
 * order (block chains, schedule chains, P2P, data parallelism), so a
 * node's children keep the same order whatever its id, and the graph
 * has a single root, fwd(stage 0, micro-batch 0).  The FIFO pop
 * sequence depends on nothing else, so every simulation result is
 * independent of the labelling (differential-tested under seeded
 * random relabellings).
 */
#ifndef VTRAIN_GRAPH_BUILDER_H
#define VTRAIN_GRAPH_BUILDER_H

#include "comm/comm_model.h"
#include "graph/op_graph.h"
#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"

namespace vtrain {

/** Options controlling graph construction. */
struct BuildOptions {
    /**
     * Override the number of micro-batches (0 keeps the plan's
     * count).  The simulator's fast mode builds capped graphs and
     * extrapolates the affine tail; see Simulator.
     */
    int n_micro_override = 0;
};

/**
 * The builder's communication-descriptor policy: everything the
 * latency model needs beyond (kind, payload) is a pure function of
 * the plan and the cluster.  Shared with GraphTemplate::retimeSlots(),
 * which re-derives latencies from recorded (kind, bytes) pairs under
 * a possibly different cluster or DP degree — routing both the build
 * and the retime through this one function keeps them bit-identical.
 */
CommOpDesc commDescFor(CommKind kind, double bytes,
                       const ParallelConfig &parallel,
                       const ClusterSpec &cluster);

/** Builds operator-granularity graphs for training iterations. */
class GraphBuilder
{
  public:
    GraphBuilder(const ModelConfig &model, const ParallelConfig &parallel,
                 const ClusterSpec &cluster, const CommModel &comm);

    /** Constructs the graph for one training iteration (finalized). */
    OpGraph build(const BuildOptions &options = {}) const;

  private:
    /** Per-(stage, micro-batch) block of ops with its boundary ids. */
    struct Block {
        OpGraph::NodeId first = -1;
        OpGraph::NodeId last = -1;
    };

    /** Per-layer (layer, MHA-backward node) of one backward block, in
     *  backward order: the op whose completion finishes that layer's
     *  gradients (layer -1 is the embedding). */
    using GradReady = std::vector<std::pair<int, OpGraph::NodeId>>;

    /** Per-build() constants hoisted out of the block loops: interned
     *  operator-descriptor ids and the (shape-invariant) tensor-
     *  parallel All-Reduce descriptor and latency. */
    struct BuildCtx {
        int32_t embed_fwd = -1;
        int32_t mha_fwd = -1;
        int32_t ffn_fwd = -1;
        int32_t lm_fwd = -1;
        int32_t lm_bwd = -1;
        int32_t ffn_bwd = -1;
        int32_t mha_bwd = -1;
        int32_t embed_bwd = -1;
        CommOpDesc tp_desc;
        double tp_latency = 0.0;
    };

    BuildCtx makeCtx(OpGraph &g) const;

    Block buildForwardBlock(OpGraph &g, const BuildCtx &ctx, int stage,
                            int mb) const;
    /** Records the block's gradient-ready nodes into `grad_ready`
     *  when non-null (only a stage's final backward block needs
     *  them). */
    Block buildBackwardBlock(OpGraph &g, const BuildCtx &ctx, int stage,
                             int mb, GradReady *grad_ready) const;

    /** Appends node to the block chain (edge from previous last). */
    static void chain(OpGraph &g, Block &block, OpGraph::NodeId node);

    /** Adds a tensor-parallel All-Reduce node into the chain. */
    void addTpAllReduce(OpGraph &g, const BuildCtx &ctx, Block &block,
                        int stage, int mb) const;

    /** The (is_forward, micro_batch) sequence of one stage. */
    std::vector<std::pair<bool, int>> stageSchedule(int stage,
                                                    int n_micro) const;

    /**
     * The order build() creates blocks in: a FIFO over the block graph
     * (each stage's `orders` chain plus the P2P edges between
     * neighbouring stages) from fwd(0, 0).  Ids are fwd(stage, mb) =
     * stage * n_micro + mb and bwd(stage, mb) = p * n_micro +
     * fwd(stage, mb).
     */
    static std::vector<int32_t>
    waveOrder(const std::vector<std::vector<std::pair<bool, int>>> &orders,
              int n_micro);

    /** Gradient-reduction + weight-update ops for one stage. */
    void addGradReduceAndUpdate(OpGraph &g, int stage,
                                const Block &final_bwd,
                                const GradReady &grad_ready) const;

    /** First layer index owned by a stage. */
    int stageFirstLayer(int stage) const;
    int layersPerStage() const;

    /** Parameters updated per GPU on a stage (embedding included). */
    double stageParamsPerGpu(int stage) const;

    double activationBytes() const;

    const ModelConfig &model_;
    const ParallelConfig &parallel_;
    const ClusterSpec &cluster_;
    const CommModel &comm_;
};

} // namespace vtrain

#endif // VTRAIN_GRAPH_BUILDER_H
