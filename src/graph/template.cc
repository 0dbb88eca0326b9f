#include "graph/template.h"

#include <algorithm>
#include <limits>

#include "graph/builder.h"
#include "util/hash.h"
#include "util/logging.h"

namespace vtrain {

uint64_t
structuralFingerprint(const ModelConfig &model,
                      const ParallelConfig &parallel, int n_micro,
                      bool collapse_operators, AttentionImpl attention)
{
    Hash64 h;
    // Domain separation + format version: bump when the builder's
    // topology policy changes in a way the fields below do not capture.
    h.mix(std::string_view("vtrain.graph-template.v1"));

    // Model shape (not the name: renamed same-shape models share).
    h.mix(model.hidden_size)
        .mix(model.num_layers)
        .mix(model.seq_length)
        .mix(model.num_heads)
        .mix(model.vocab_size);

    // Structural plan fields.  The DP degree enters only as d>1 (no
    // DP collectives otherwise) — except under ZeRO, whose 1/d
    // weight-update sharding puts d into the operator descriptors.
    // Bucketing fields are mixed only where they shape the graph:
    // without DP there are no gradient collectives at all, and with
    // bucketing disabled bucket_bytes never partitions anything —
    // sweeping an inert field must not re-key the template.
    const bool data_parallel = parallel.data > 1;
    const bool zero = parallel.zero_stage >= 1 && data_parallel;
    const bool bucketing = data_parallel && parallel.gradient_bucketing;
    h.mix(parallel.tensor)
        .mix(parallel.pipeline)
        .mix(parallel.micro_batch_size)
        .mix(static_cast<int64_t>(parallel.schedule))
        .mix(bucketing)
        .mix(bucketing ? parallel.bucket_bytes : 0.0)
        .mix(parallel.activation_recompute)
        .mix(data_parallel)
        .mix(zero)
        .mix(zero ? int64_t{parallel.data} : int64_t{0});

    h.mix(int64_t{n_micro});

    // Expansion mode: collapse changes the task granularity; the
    // attention implementation changes the kernel decomposition.
    h.mix(collapse_operators).mix(static_cast<int64_t>(attention));
    return h.digest();
}

std::shared_ptr<const GraphTemplate>
GraphTemplate::capture(const OpGraph &ops, OperatorToTaskTable &table,
                       const ExpandOptions &options, TaskGraph *expanded)
{
    VTRAIN_CHECK(options.perturber == nullptr,
                 "graph templates cannot capture perturbed expansions");
    VTRAIN_CHECK(ops.finalized(),
                 "capture requires a finalized operator graph");
    std::shared_ptr<GraphTemplate> tmpl(new GraphTemplate());
    if (expanded)
        *expanded = TaskGraph::expand(ops, table, options);
    tmpl->collapse_ = options.collapse_operators;

    // Descriptor slots: one per kernel, or one per descriptor when
    // operators collapse to single tasks.
    tmpl->descs_ = ops.descs();
    const size_t n_descs = tmpl->descs_.size();
    std::vector<int32_t> &desc_slot = tmpl->desc_slot_;
    desc_slot.assign(n_descs + 1, 0);
    for (size_t d = 0; d < n_descs; ++d) {
        size_t kernels = 1;
        if (!options.collapse_operators) {
            kernels = table.lookup(tmpl->descs_[d]).kernels.size();
            VTRAIN_CHECK(kernels > 0 &&
                             kernels <= std::numeric_limits<uint16_t>::max(),
                         "descriptor ", d, " expands to ", kernels,
                         " kernels");
        }
        desc_slot[d + 1] = desc_slot[d] + static_cast<int32_t>(kernels);
    }

    OpTopology &topo = tmpl->ops_;
    const std::vector<OpNode> &nodes = ops.nodes();
    const size_t n_ops = nodes.size();
    auto &payloads = tmpl->comm_payloads_;
    size_t last_payload = 0;
    topo.num_devices = ops.numDevices();
    topo.ops.reserve(n_ops);
    for (size_t i = 0; i < n_ops; ++i) {
        const OpNode &node = nodes[i];
        OpTopology::Op &op = topo.ops.emplace_back();
        op.lane =
            node.device * kNumStreams + static_cast<int32_t>(node.stream);
        op.busy_lane =
            node.device * 2 + (node.stream != StreamKind::Compute ? 1 : 0);
        op.tag = static_cast<uint8_t>(taskTagOf(node));
        if (node.type == OpNodeType::Compute) {
            op.slot = desc_slot[node.desc_id];
            op.kernels = static_cast<uint16_t>(
                desc_slot[node.desc_id + 1] - op.slot);
        } else {
            // Comm sites repeat heavily (every TP All-Reduce shares
            // one payload), so the last match and then a short linear
            // memo find the slot.
            const auto same = [&node](const CommPayload &payload) {
                return payload.kind == node.comm_kind &&
                       payload.bytes == node.comm_bytes;
            };
            if (last_payload >= payloads.size() ||
                !same(payloads[last_payload])) {
                last_payload = static_cast<size_t>(
                    std::find_if(payloads.begin(), payloads.end(), same) -
                    payloads.begin());
                if (last_payload == payloads.size())
                    payloads.push_back(
                        CommPayload{node.comm_kind, node.comm_bytes});
            }
            op.slot = desc_slot[n_descs] + static_cast<int32_t>(last_payload);
            op.kernels = 1;
        }
        topo.num_tasks += static_cast<size_t>(op.kernels);
    }

    // The operator graph's CSR is one contiguous list in node order.
    topo.child_offsets.assign(n_ops + 1, 0);
    topo.in_degree.assign(n_ops, 0);
    if (n_ops > 0) {
        const OpGraph::NodeId *const base = ops.childBegin(0);
        topo.child_list.assign(
            base, ops.childEnd(static_cast<OpGraph::NodeId>(n_ops - 1)));
        for (size_t i = 0; i < n_ops; ++i)
            topo.child_offsets[i + 1] = static_cast<int32_t>(
                ops.childEnd(static_cast<OpGraph::NodeId>(i)) - base);
        for (const int32_t child : topo.child_list)
            ++topo.in_degree[child];
    }
    topo.num_slots = static_cast<size_t>(desc_slot[n_descs]) +
                     tmpl->comm_payloads_.size();

    // Budget one run per operator.  Capped GPT-3 and MT-NLG
    // topologies have 3-28x fewer runs than operators, and a collapsed
    // expansion (one task per operator) can never exceed it.
    if (RunSchedule::representable(topo))
        tmpl->run_budget_ = topo.numOps();
    tmpl->bytes_ =
        sizeof(GraphTemplate) + topo.approxBytes() +
        n_descs * sizeof(OpDesc) + desc_slot.size() * sizeof(int32_t) +
        tmpl->comm_payloads_.size() * sizeof(CommPayload) +
        (tmpl->run_budget_ > 0
             ? RunSchedule::bytesFor(topo, tmpl->run_budget_)
             : 0);
    return tmpl;
}

const RunSchedule *
GraphTemplate::runs() const
{
    std::call_once(runs_once_, [this] {
        if (run_budget_ == 0)
            return;
        auto runs = RunSchedule::build(ops_);
        if (runs->numRuns() <= run_budget_)
            runs_ = std::move(runs);
    });
    return runs_.get();
}

const ReplaySchedule &
GraphTemplate::schedule() const
{
    std::call_once(schedule_once_,
                   [this] { schedule_ = ReplaySchedule::build(ops_); });
    return *schedule_;
}

bool
GraphTemplate::retimeSlots(OperatorToTaskTable &table,
                           const ParallelConfig &parallel,
                           const ClusterSpec &cluster, const CommModel &comm,
                           std::vector<double> *out) const
{
    // One table lookup per interned descriptor, verified against the
    // captured kernel counts: a disagreeing decomposition (fingerprint
    // collision, different profiler) must rebuild, never mis-time.
    const size_t n_descs = descs_.size();
    std::vector<const KernelSequence *> seqs(n_descs);
    for (size_t d = 0; d < n_descs; ++d) {
        seqs[d] = &table.lookup(descs_[d]);
        if (!collapse_ && static_cast<int32_t>(seqs[d]->kernels.size()) !=
                              desc_slot_[d + 1] - desc_slot_[d])
            return false;
    }

    std::vector<double> &slots = *out;
    slots.resize(ops_.num_slots);
    for (size_t d = 0; d < n_descs; ++d) {
        const auto &kernels = seqs[d]->kernels;
        if (collapse_) {
            // Same accumulation order as expansion: bit-identical sum.
            double total = 0.0;
            for (const auto &k : kernels)
                total += k.duration;
            slots[desc_slot_[d]] = total;
        } else {
            for (size_t k = 0; k < kernels.size(); ++k)
                slots[desc_slot_[d] + k] = kernels[k].duration;
        }
    }
    const size_t comm_base = static_cast<size_t>(desc_slot_[n_descs]);
    for (size_t p = 0; p < comm_payloads_.size(); ++p)
        slots[comm_base + p] = comm.latencySeconds(commDescFor(
            comm_payloads_[p].kind, comm_payloads_[p].bytes, parallel,
            cluster));
    return true;
}

bool
GraphTemplate::retimeDurations(OperatorToTaskTable &table,
                               const ParallelConfig &parallel,
                               const ClusterSpec &cluster,
                               const CommModel &comm,
                               std::vector<double> *out) const
{
    std::vector<double> slots;
    if (!retimeSlots(table, parallel, cluster, comm, &slots))
        return false;
    out->resize(ops_.num_tasks);
    double *task = out->data();
    for (const OpTopology::Op &op : ops_.ops) {
        std::copy_n(slots.data() + op.slot, op.kernels, task);
        task += op.kernels;
    }
    return true;
}

} // namespace vtrain
