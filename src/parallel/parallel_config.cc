#include "parallel/parallel_config.h"

#include <cstdio>

#include "util/logging.h"

namespace vtrain {

std::string
toString(PipelineSchedule s)
{
    switch (s) {
      case PipelineSchedule::GPipe:
        return "gpipe";
      case PipelineSchedule::OneFOneB:
        return "1f1b";
    }
    VTRAIN_PANIC("unknown pipeline schedule");
}

std::string
ParallelConfig::brief() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "(t=%d,d=%d,p=%d,m=%d)", tensor, data,
                  pipeline, micro_batch_size);
    return buf;
}

bool
ParallelConfig::valid(const ModelConfig &model, const ClusterSpec &cluster,
                      std::string *why) const
{
    auto fail = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    if (tensor < 1 || data < 1 || pipeline < 1)
        return fail("parallel degrees must be positive");
    if (micro_batch_size < 1)
        return fail("micro-batch size must be positive");
    if (global_batch_size < 1)
        return fail("global batch size must be positive");

    if (tensor <= cluster.node.gpus_per_node) {
        if (cluster.node.gpus_per_node % tensor != 0)
            return fail("t must divide the node GPU count");
    } else {
        // Node-spanning tensor groups (e.g. 16-way on 8-GPU nodes) are
        // permitted in the design-space sweep (Fig. 10) but pay
        // inter-node All-Reduce latency.
        if (tensor % cluster.node.gpus_per_node != 0)
            return fail("node-spanning t must cover whole nodes");
    }
    if (model.hidden_size % tensor != 0)
        return fail("t must divide hidden size");
    if (model.num_heads % tensor != 0)
        return fail("t must divide head count");
    if (model.vocab_size % tensor != 0)
        return fail("t must divide vocabulary size");

    if (model.num_layers % pipeline != 0)
        return fail("p must divide layer count");

    if (global_batch_size % data != 0)
        return fail("d must divide the global batch size");
    if (batchPerReplica() % micro_batch_size != 0)
        return fail("m must divide the per-replica batch");

    if (totalGpus() > cluster.totalGpus())
        return fail("plan needs more GPUs than the cluster has");

    if (zero_stage < 0 || zero_stage > 1)
        return fail("only ZeRO stages 0 and 1 are modelled");

    // Each pipeline stage's tensor group must not straddle nodes; with
    // the Megatron rank order (t fastest) this holds when t divides
    // the node size, already checked above.
    return true;
}

void
ParallelConfig::validate(const ModelConfig &model,
                         const ClusterSpec &cluster) const
{
    std::string why;
    if (!valid(model, cluster, &why))
        VTRAIN_FATAL("invalid plan ", brief(), " for ", model.name, ": ",
                     why);
}

} // namespace vtrain
