/**
 * @file
 * Training-cluster model: a collection of identical GPU nodes joined
 * by a non-blocking fat-tree (the paper's 64-node validation system).
 */
#ifndef VTRAIN_HW_CLUSTER_SPEC_H
#define VTRAIN_HW_CLUSTER_SPEC_H

#include <cstdint>

#include "hw/node_spec.h"

namespace vtrain {

/** A homogeneous multi-node GPU cluster. */
struct ClusterSpec {
    NodeSpec node = dgxA100Node();

    /** Number of server nodes. */
    int num_nodes = 64;

    /**
     * Bandwidth effectiveness factor "alpha" of Eq. 1: effective
     * inter-node bandwidth is alpha * nic_bandwidth.  The paper's
     * sweep found alpha = 1.0 minimizes multi-node error.
     */
    double bandwidth_effectiveness = 1.0;

    /**
     * Decompose node-spanning All-Reduce hierarchically (intra-node
     * reduce-scatter over NVLink, inter-node All-Reduce of shards,
     * intra-node all-gather) instead of the flat Eq. 1 ring — the
     * communication-model refinement the paper leaves as future work
     * (Sec. IV).  Off by default to stay paper-faithful.
     */
    bool hierarchical_allreduce = false;

    /** @return total GPU count across the cluster. */
    int totalGpus() const { return num_nodes * node.gpus_per_node; }

    /** @return aggregate peak FLOP/s at the given precision. */
    double peakFlops(Precision p) const;

    bool operator==(const ClusterSpec &) const = default;

    /**
     * Stable 64-bit fingerprint of the full hardware description
     * (GPU, node, fabric and modelling knobs).  Equal specs always
     * fingerprint equally, across processes and platforms.
     * Convenience for keying clusters on their own (maps, logs);
     * SimRequest::fingerprint() folds the same fields in via
     * hashAppend().
     */
    uint64_t fingerprint() const;
};

/** ClusterSpec's wire keys and fingerprint order (see util/hash.h). */
template <typename Visit>
void
fields(Visit &&visit, const ClusterSpec *)
{
    visit("node", &ClusterSpec::node);
    visit("num_nodes", &ClusterSpec::num_nodes);
    visit("bandwidth_effectiveness",
          &ClusterSpec::bandwidth_effectiveness);
    visit("hierarchical_allreduce", &ClusterSpec::hierarchical_allreduce);
}

/** Builds a cluster with exactly n_gpus GPUs (must divide evenly). */
ClusterSpec makeCluster(int n_gpus, const NodeSpec &node = dgxA100Node());

/** The paper's 512-GPU (64-node) multi-node validation cluster. */
ClusterSpec validationCluster512();

/** The 1,024-GPU cluster used by the multi-tenant study (Sec. V-B). */
ClusterSpec schedulingCluster1024();

} // namespace vtrain

#endif // VTRAIN_HW_CLUSTER_SPEC_H
