#include "graph/builder.h"

#include <algorithm>

#include "util/logging.h"

namespace vtrain {

CommOpDesc
commDescFor(CommKind kind, double bytes, const ParallelConfig &parallel,
            const ClusterSpec &cluster)
{
    CommOpDesc desc;
    desc.kind = kind;
    desc.bytes = bytes;
    switch (kind) {
      case CommKind::TpAllReduce:
        desc.scope = CommModel::tpScope(parallel, cluster);
        desc.n_workers = parallel.tensor;
        desc.concurrent_groups = 1;
        break;
      case CommKind::PipeSendRecv:
        desc.scope = CommModel::pipeScope(parallel, cluster);
        desc.n_workers = 2;
        desc.concurrent_groups = 1;
        break;
      case CommKind::DpAllReduce:
      case CommKind::DpReduceScatter:
      case CommKind::DpAllGather: {
        desc.scope = CommModel::dpScope(parallel, cluster);
        desc.n_workers = parallel.data;
        const int tp_per_node =
            std::min(parallel.tensor, cluster.node.gpus_per_node);
        desc.concurrent_groups = tp_per_node;
        desc.members_per_node = std::min(
            parallel.data,
            std::max(1, cluster.node.gpus_per_node / tp_per_node));
        break;
      }
    }
    return desc;
}

GraphBuilder::GraphBuilder(const ModelConfig &model,
                           const ParallelConfig &parallel,
                           const ClusterSpec &cluster,
                           const CommModel &comm)
    : model_(model), parallel_(parallel), cluster_(cluster), comm_(comm)
{
    parallel_.validate(model_, cluster_);
}

int
GraphBuilder::layersPerStage() const
{
    return static_cast<int>(model_.num_layers) / parallel_.pipeline;
}

int
GraphBuilder::stageFirstLayer(int stage) const
{
    return stage * layersPerStage();
}

double
GraphBuilder::activationBytes() const
{
    // fp16 activations of one micro-batch: (m * s) x h.
    return 2.0 * static_cast<double>(parallel_.micro_batch_size) *
           static_cast<double>(model_.seq_length) *
           static_cast<double>(model_.hidden_size);
}

double
GraphBuilder::stageParamsPerGpu(int stage) const
{
    const double t = static_cast<double>(parallel_.tensor);
    const double h = static_cast<double>(model_.hidden_size);
    const double V = static_cast<double>(model_.vocab_size);
    const double s = static_cast<double>(model_.seq_length);

    double params = static_cast<double>(layersPerStage()) *
                    model_.parametersPerLayer() / t;
    if (stage == 0) {
        // Vocab-parallel word embedding + replicated positional table.
        params += V * h / t + s * h;
    }
    if (stage == parallel_.pipeline - 1) {
        // Megatron replicates the word embedding on the last stage for
        // the LM head; the final LayerNorm lives there too.
        params += V * h / t + 2.0 * h;
    }
    return params;
}

void
GraphBuilder::chain(OpGraph &g, Block &block, OpGraph::NodeId node)
{
    if (block.first < 0)
        block.first = node;
    if (block.last >= 0)
        g.addEdge(block.last, node);
    block.last = node;
}

GraphBuilder::BuildCtx
GraphBuilder::makeCtx(OpGraph &g) const
{
    BuildCtx ctx;
    const int m = parallel_.micro_batch_size;
    const int t = parallel_.tensor;
    const bool recompute = parallel_.activation_recompute;

    ctx.embed_fwd =
        g.internDesc(OpDesc::forModel(OpKind::EmbeddingFwd, model_, m, t));
    ctx.mha_fwd =
        g.internDesc(OpDesc::forModel(OpKind::MhaFwd, model_, m, t));
    ctx.ffn_fwd =
        g.internDesc(OpDesc::forModel(OpKind::FfnFwd, model_, m, t));
    ctx.lm_fwd =
        g.internDesc(OpDesc::forModel(OpKind::LmHeadFwd, model_, m, t));
    // The LM head is not checkpointed; its backward runs directly.
    ctx.lm_bwd = g.internDesc(OpDesc::forModel(OpKind::LmHeadBwd, model_,
                                               m, t, /*recompute=*/false));
    ctx.ffn_bwd = g.internDesc(
        OpDesc::forModel(OpKind::FfnBwd, model_, m, t, recompute));
    ctx.mha_bwd = g.internDesc(
        OpDesc::forModel(OpKind::MhaBwd, model_, m, t, recompute));
    ctx.embed_bwd =
        g.internDesc(OpDesc::forModel(OpKind::EmbeddingBwd, model_, m, t));

    if (t >= 2) {
        // Shape-invariant across stages and micro-batches: price the
        // tensor-parallel All-Reduce once per build, not once per node.
        ctx.tp_desc = commDescFor(CommKind::TpAllReduce,
                                  activationBytes(), parallel_, cluster_);
        ctx.tp_latency = comm_.latencySeconds(ctx.tp_desc);
    }
    return ctx;
}

void
GraphBuilder::addTpAllReduce(OpGraph &g, const BuildCtx &ctx, Block &block,
                             int stage, int mb) const
{
    if (parallel_.tensor < 2)
        return;
    // Tensor-parallel All-Reduce has a strict sequential dependency on
    // its producing compute op (Sec. II-B), so it lives on the compute
    // stream: it cannot be hidden.
    const auto node = g.addComm(
        static_cast<int16_t>(stage), mb, ctx.tp_desc.kind, ctx.tp_latency,
        ctx.tp_desc.n_workers, ctx.tp_desc.scope,
        ctx.tp_desc.concurrent_groups, StreamKind::Compute,
        ctx.tp_desc.bytes);
    chain(g, block, node);
}

GraphBuilder::Block
GraphBuilder::buildForwardBlock(OpGraph &g, const BuildCtx &ctx, int stage,
                                int mb) const
{
    Block block;
    const auto device = static_cast<int16_t>(stage);

    if (stage == 0)
        chain(g, block, g.addCompute(device, mb, ctx.embed_fwd));
    for (int l = 0; l < layersPerStage(); ++l) {
        chain(g, block, g.addCompute(device, mb, ctx.mha_fwd));
        addTpAllReduce(g, ctx, block, stage, mb);
        chain(g, block, g.addCompute(device, mb, ctx.ffn_fwd));
        addTpAllReduce(g, ctx, block, stage, mb);
    }
    if (stage == parallel_.pipeline - 1)
        chain(g, block, g.addCompute(device, mb, ctx.lm_fwd));
    return block;
}

GraphBuilder::Block
GraphBuilder::buildBackwardBlock(OpGraph &g, const BuildCtx &ctx,
                                 int stage, int mb,
                                 GradReady *grad_ready) const
{
    Block block;
    const auto device = static_cast<int16_t>(stage);
    const bool recompute = parallel_.activation_recompute;
    const int first_layer = stageFirstLayer(stage);
    if (grad_ready)
        grad_ready->reserve(static_cast<size_t>(layersPerStage()) + 1);

    if (stage == parallel_.pipeline - 1)
        chain(g, block, g.addCompute(device, mb, ctx.lm_bwd));
    for (int l = layersPerStage() - 1; l >= 0; --l) {
        if (recompute) {
            // The recomputed forward pass re-executes its two
            // tensor-parallel All-Reduces (the recomputed GEMMs are
            // folded into the backward operators' kernel sequences).
            addTpAllReduce(g, ctx, block, stage, mb);
            addTpAllReduce(g, ctx, block, stage, mb);
        }
        chain(g, block, g.addCompute(device, mb, ctx.ffn_bwd));
        addTpAllReduce(g, ctx, block, stage, mb);
        const auto mha_bwd = g.addCompute(device, mb, ctx.mha_bwd);
        chain(g, block, mha_bwd);
        addTpAllReduce(g, ctx, block, stage, mb);
        if (grad_ready)
            grad_ready->emplace_back(first_layer + l, mha_bwd);
    }
    if (stage == 0) {
        const auto embed_bwd = g.addCompute(device, mb, ctx.embed_bwd);
        chain(g, block, embed_bwd);
        if (grad_ready)
            grad_ready->emplace_back(-1, embed_bwd);
    }
    return block;
}

std::vector<std::pair<bool, int>>
GraphBuilder::stageSchedule(int stage, int n_micro) const
{
    std::vector<std::pair<bool, int>> order;
    order.reserve(2 * static_cast<size_t>(n_micro));

    if (parallel_.schedule == PipelineSchedule::GPipe) {
        // All forwards in order, then all backwards in reverse order
        // (Fig. 7(a)).
        for (int mb = 0; mb < n_micro; ++mb)
            order.emplace_back(true, mb);
        for (int mb = n_micro - 1; mb >= 0; --mb)
            order.emplace_back(false, mb);
        return order;
    }

    // 1F1B (Fig. 7(b)): stage i runs (p - 1 - i) warmup forwards, then
    // alternates one-forward-one-backward, then drains backwards.
    const int warmup =
        std::min(parallel_.pipeline - 1 - stage, n_micro);
    for (int mb = 0; mb < warmup; ++mb)
        order.emplace_back(true, mb);
    for (int mb = warmup; mb < n_micro; ++mb) {
        order.emplace_back(true, mb);
        order.emplace_back(false, mb - warmup);
    }
    for (int mb = n_micro - warmup; mb < n_micro; ++mb)
        order.emplace_back(false, mb);
    return order;
}

std::vector<int32_t>
GraphBuilder::waveOrder(
    const std::vector<std::vector<std::pair<bool, int>>> &orders,
    int n_micro)
{
    const int p = static_cast<int>(orders.size());
    const size_t n_blocks =
        static_cast<size_t>(p) * static_cast<size_t>(n_micro);
    const auto id = [n_blocks, n_micro](bool is_fwd, int stage, int mb) {
        return static_cast<int32_t>((is_fwd ? 0 : n_blocks) +
                                    static_cast<size_t>(stage) * n_micro +
                                    static_cast<size_t>(mb));
    };

    // The block graph: each block's schedule successor on its stage,
    // then its P2P neighbour -- the order in which the operator graph
    // lists a block's last operator's children.
    std::vector<int32_t> next(2 * n_blocks, -1);
    std::vector<int32_t> in_degree(2 * n_blocks, 0);
    for (int stage = 0; stage < p; ++stage) {
        int32_t prev = -1;
        for (const auto &[is_fwd, mb] : orders[stage]) {
            const int32_t b = id(is_fwd, stage, mb);
            if (prev >= 0) {
                next[prev] = b;
                ++in_degree[b];
            }
            prev = b;
        }
    }
    for (int stage = 0; stage + 1 < p; ++stage) {
        for (int mb = 0; mb < n_micro; ++mb) {
            ++in_degree[id(true, stage + 1, mb)];
            ++in_degree[id(false, stage, mb)];
        }
    }

    std::vector<int32_t> wave;
    wave.reserve(2 * n_blocks);
    for (size_t b = 0; b < 2 * n_blocks; ++b)
        if (in_degree[b] == 0)
            wave.push_back(static_cast<int32_t>(b));
    const auto release = [&](int32_t b) {
        if (--in_degree[b] == 0)
            wave.push_back(b);
    };
    for (size_t head = 0; head < wave.size(); ++head) {
        const int32_t b = wave[head];
        if (next[b] >= 0)
            release(next[b]);
        const bool is_fwd = static_cast<size_t>(b) < n_blocks;
        const size_t i = is_fwd ? b : b - n_blocks;
        const int stage = static_cast<int>(i / n_micro);
        const int mb = static_cast<int>(i % n_micro);
        if (is_fwd && stage + 1 < p)
            release(id(true, stage + 1, mb));
        else if (!is_fwd && stage > 0)
            release(id(false, stage - 1, mb));
    }
    VTRAIN_CHECK(wave.size() == 2 * n_blocks,
                 "pipeline schedule has a cyclic block order");
    return wave;
}

void
GraphBuilder::addGradReduceAndUpdate(OpGraph &g, int stage,
                                     const Block &final_bwd,
                                     const GradReady &grad_ready) const
{
    const int d = parallel_.data;
    const int t = parallel_.tensor;
    const double stage_params = stageParamsPerGpu(stage);

    // ZeRO-1 shards the optimizer across the d replicas: each rank
    // updates params/d and the fp16 weights are All-Gathered after.
    const bool zero = parallel_.zero_stage >= 1 && d > 1;

    OpDesc wu_desc = OpDesc::forModel(OpKind::WeightUpdate, model_, 1, t);
    wu_desc.update_params =
        zero ? stage_params / static_cast<double>(d) : stage_params;
    const auto wu =
        g.addCompute(static_cast<int16_t>(stage), -1, wu_desc);
    g.addEdge(final_bwd.last, wu);

    if (d < 2)
        return;

    const CommKind reduce_kind =
        zero ? CommKind::DpReduceScatter : CommKind::DpAllReduce;

    if (zero) {
        // Updated-parameter All-Gather closes the iteration.
        const CommOpDesc ag = commDescFor(
            CommKind::DpAllGather, 2.0 * stage_params, parallel_, cluster_);
        const auto ag_node = g.addComm(
            static_cast<int16_t>(stage), -1, ag.kind,
            comm_.latencySeconds(ag), ag.n_workers, ag.scope,
            ag.concurrent_groups, StreamKind::DpCollective, ag.bytes);
        g.addEdge(wu, ag_node);
    }

    const double layer_grad_bytes =
        2.0 * model_.parametersPerLayer() / static_cast<double>(t);
    const double embed_grad_bytes =
        2.0 * (static_cast<double>(model_.vocab_size) *
                   static_cast<double>(model_.hidden_size) /
                   static_cast<double>(t) +
               static_cast<double>(model_.seq_length) *
                   static_cast<double>(model_.hidden_size));
    const double lm_head_grad_bytes =
        2.0 * (static_cast<double>(model_.vocab_size) *
                   static_cast<double>(model_.hidden_size) /
                   static_cast<double>(t) +
               2.0 * static_cast<double>(model_.hidden_size));

    auto add_bucket = [&](double bytes, OpGraph::NodeId ready) {
        const CommOpDesc desc =
            commDescFor(reduce_kind, bytes, parallel_, cluster_);
        // Gradient All-Reduce runs on DDP's dedicated communication
        // stream, so it overlaps backward compute (Fig. 5) without
        // blocking pipeline Send-Receive traffic.
        const auto node = g.addComm(
            static_cast<int16_t>(stage), -1, desc.kind,
            comm_.latencySeconds(desc), desc.n_workers, desc.scope,
            desc.concurrent_groups, StreamKind::DpCollective, desc.bytes);
        g.addEdge(ready, node);
        g.addEdge(node, wu);
    };

    if (!parallel_.gradient_bucketing) {
        // Fig. 5(b): a single All-Reduce over the stage's gradients
        // once the whole backward pass has finished.
        double total = static_cast<double>(layersPerStage()) *
                       layer_grad_bytes;
        if (stage == 0)
            total += embed_grad_bytes;
        if (stage == parallel_.pipeline - 1)
            total += lm_head_grad_bytes;
        add_bucket(total, final_bwd.last);
        return;
    }

    // Fig. 5(a): group gradients into buckets in backward-completion
    // order; each bucket's All-Reduce launches as soon as its last
    // layer gradient is ready and overlaps with the remaining
    // backward compute on the NCCL stream.
    VTRAIN_CHECK(!grad_ready.empty(),
                 "backward block produced no gradients");
    double pending = 0.0;
    OpGraph::NodeId pending_ready = -1;
    bool first_entry = true;
    for (const auto &[layer, ready] : grad_ready) {
        double bytes = (layer < 0) ? embed_grad_bytes : layer_grad_bytes;
        if (first_entry && stage == parallel_.pipeline - 1)
            bytes += lm_head_grad_bytes;
        first_entry = false;
        pending += bytes;
        pending_ready = ready;
        if (pending >= parallel_.bucket_bytes) {
            add_bucket(pending, pending_ready);
            pending = 0.0;
            pending_ready = -1;
        }
    }
    if (pending > 0.0)
        add_bucket(pending, pending_ready);
}

OpGraph
GraphBuilder::build(const BuildOptions &options) const
{
    const int p = parallel_.pipeline;
    const int n_micro = options.n_micro_override > 0
                            ? options.n_micro_override
                            : parallel_.numMicroBatches();
    VTRAIN_REQUIRE(n_micro >= 1, "need at least one micro-batch");

    OpGraph g;
    g.setNumDevices(p);

    // Pre-size node and edge storage from per-block op counts so the
    // build never reallocates mid-graph.  Upper bounds: a forward
    // block is ls*(2 compute + 2 ARs) plus embedding/LM head; a
    // backward block is ls*(2 compute + (2 + 2*recompute) ARs) plus
    // its boundary ops; P2P adds 2 nodes per (boundary, micro-batch);
    // DP adds at most ls+2 buckets plus weight update and All-Gather
    // per stage.  Edges: every node is chained at most once (<=
    // nodes), schedule edges <= 2 per (stage, micro-batch), P2P <= 4,
    // and DP <= 2*ls + 6 per stage.
    {
        const size_t ls = static_cast<size_t>(layersPerStage());
        const size_t ar = parallel_.tensor >= 2 ? 1 : 0;
        const size_t rec = parallel_.activation_recompute ? 1 : 0;
        const size_t fwd_ops = ls * (2 + 2 * ar) + 2;
        const size_t bwd_ops = ls * (2 + (2 + 2 * rec) * ar) + 2;
        const size_t blocks = static_cast<size_t>(p) *
                              static_cast<size_t>(n_micro);
        const size_t nodes = blocks * (fwd_ops + bwd_ops) +
                             2 * blocks +
                             static_cast<size_t>(p) * (ls + 4);
        g.reserve(nodes, nodes + 6 * blocks +
                             static_cast<size_t>(p) * (2 * ls + 6));
    }

    const BuildCtx ctx = makeCtx(g);

    // Blocks are indexed fwd(stage, mb) = stage * n_micro + mb and
    // bwd(stage, mb) = n_blocks + fwd(stage, mb).
    const size_t n_blocks =
        static_cast<size_t>(p) * static_cast<size_t>(n_micro);
    const auto at = [n_micro](int stage, int mb) {
        return static_cast<size_t>(stage) * static_cast<size_t>(n_micro) +
               static_cast<size_t>(mb);
    };
    std::vector<std::vector<std::pair<bool, int>>> orders(p);
    std::vector<int> final_bwd_mb(p, n_micro - 1);
    for (int stage = 0; stage < p; ++stage) {
        orders[stage] = stageSchedule(stage, n_micro);
        for (const auto &[is_fwd, mb] : orders[stage])
            if (!is_fwd)
                final_bwd_mb[stage] = mb;
    }

    // 1. Node ids in wave order: create every block, and each P2P send
    //    right after its source block, in the order a block-level FIFO
    //    pops them (see file comment).  Chain edges are added here;
    //    every other edge is added below in phase order, so each
    //    node's CSR child order does not depend on the ids.
    std::vector<Block> blocks(2 * n_blocks);
    std::vector<OpGraph::NodeId> sends(2 * n_blocks, -1);
    std::vector<GradReady> grad_ready(p);
    CommOpDesc p2p;
    double p2p_latency = 0.0;
    if (p > 1) {
        p2p = commDescFor(CommKind::PipeSendRecv, activationBytes(),
                          parallel_, cluster_);
        p2p_latency = comm_.latencySeconds(p2p);
    }
    for (const int32_t b : waveOrder(orders, n_micro)) {
        const bool is_fwd = static_cast<size_t>(b) < n_blocks;
        const size_t i = is_fwd ? b : b - n_blocks;
        const int stage = static_cast<int>(i / n_micro);
        const int mb = static_cast<int>(i % n_micro);
        if (is_fwd) {
            blocks[b] = buildForwardBlock(g, ctx, stage, mb);
        } else {
            blocks[b] = buildBackwardBlock(
                g, ctx, stage, mb,
                mb == final_bwd_mb[stage] ? &grad_ready[stage] : nullptr);
        }
        // Forward activations flow stage -> stage+1, backward
        // gradients stage -> stage-1.
        if (is_fwd ? stage + 1 < p : stage > 0)
            sends[b] = g.addComm(static_cast<int16_t>(stage), mb, p2p.kind,
                                 p2p_latency, 2, p2p.scope, 1,
                                 StreamKind::Comm, p2p.bytes);
    }
    const Block *const fwd = blocks.data();
    const Block *const bwd = blocks.data() + n_blocks;

    // 2. Intra-GPU execution-order chains per the pipeline schedule.
    for (int stage = 0; stage < p; ++stage) {
        const Block *prev = nullptr;
        for (const auto &[is_fwd, mb] : orders[stage]) {
            const Block &cur =
                is_fwd ? fwd[at(stage, mb)] : bwd[at(stage, mb)];
            if (prev)
                g.addEdge(prev->last, cur.first);
            prev = &cur;
        }
    }

    // 3. Cross-stage micro-batch dependencies through the P2P
    //    Send-Receive operators at each stage boundary.
    for (int stage = 0; stage + 1 < p; ++stage) {
        for (int mb = 0; mb < n_micro; ++mb) {
            const size_t lo = at(stage, mb);
            const size_t hi = at(stage + 1, mb);
            g.addEdge(fwd[lo].last, sends[lo]);
            g.addEdge(sends[lo], fwd[hi].first);
            g.addEdge(bwd[hi].last, sends[n_blocks + hi]);
            g.addEdge(sends[n_blocks + hi], bwd[lo].first);
        }
    }

    // 4. Data-parallel gradient reduction and weight update per stage.
    for (int stage = 0; stage < p; ++stage)
        addGradReduceAndUpdate(g, stage,
                               bwd[at(stage, final_bwd_mb[stage])],
                               grad_ready[stage]);

    g.finalize();
    return g;
}

} // namespace vtrain
