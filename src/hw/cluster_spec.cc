#include "hw/cluster_spec.h"

#include "util/hash.h"
#include "util/logging.h"

namespace vtrain {

uint64_t
ClusterSpec::fingerprint() const
{
    return hashValue(*this);
}

double
ClusterSpec::peakFlops(Precision p) const
{
    return static_cast<double>(totalGpus()) * node.gpu.peakFlops(p);
}

ClusterSpec
makeCluster(int n_gpus, const NodeSpec &node)
{
    VTRAIN_REQUIRE(n_gpus > 0, "cluster needs at least one GPU");
    ClusterSpec cluster;
    cluster.node = node;
    if (n_gpus < node.gpus_per_node) {
        // A partial node: model it as one node with fewer GPUs.
        cluster.node.gpus_per_node = n_gpus;
        cluster.num_nodes = 1;
    } else {
        VTRAIN_REQUIRE(n_gpus % node.gpus_per_node == 0,
                       "GPU count ", n_gpus,
                       " must be a multiple of GPUs per node ",
                       node.gpus_per_node);
        cluster.num_nodes = n_gpus / node.gpus_per_node;
    }
    return cluster;
}

ClusterSpec
validationCluster512()
{
    return makeCluster(512);
}

ClusterSpec
schedulingCluster1024()
{
    return makeCluster(1024);
}

} // namespace vtrain
