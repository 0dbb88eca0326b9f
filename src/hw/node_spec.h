/**
 * @file
 * Multi-GPU server node model (a DGX-A100-class box).
 */
#ifndef VTRAIN_HW_NODE_SPEC_H
#define VTRAIN_HW_NODE_SPEC_H

#include "hw/gpu_spec.h"

namespace vtrain {

/**
 * A GPU server node: GPUs connected by NVLink/NVSwitch plus NICs for
 * inter-node traffic.  Matches the paper's validation platform (8x
 * A100 over NVLink/NVSwitch, four 200 Gbps HDR InfiniBand HCAs).
 */
struct NodeSpec {
    GpuSpec gpu = a100Sxm80GB();

    /** GPUs per node. */
    int gpus_per_node = 8;

    /** Per-GPU unidirectional NVLink bandwidth into the switch, B/s. */
    double nvlink_bandwidth = 300e9;

    /** Aggregate inter-node NIC bandwidth per node, B/s.
     *  4 x 200 Gbps HDR InfiniBand = 800 Gbps = 100 GB/s. */
    double nic_bandwidth = 100e9;

    /** One-way inter-node message latency, seconds. */
    double nic_latency = 5e-6;

    /** One-way intra-node (NVLink) message latency, seconds. */
    double nvlink_latency = 2e-6;

    bool operator==(const NodeSpec &) const = default;
};

/** NodeSpec's wire keys and fingerprint order (see util/hash.h). */
template <typename Visit>
void
fields(Visit &&visit, const NodeSpec *)
{
    visit("gpu", &NodeSpec::gpu);
    visit("gpus_per_node", &NodeSpec::gpus_per_node);
    visit("nvlink_bandwidth", &NodeSpec::nvlink_bandwidth);
    visit("nic_bandwidth", &NodeSpec::nic_bandwidth);
    visit("nic_latency", &NodeSpec::nic_latency);
    visit("nvlink_latency", &NodeSpec::nvlink_latency);
}

/** The paper's DGX-A100-class validation node. */
NodeSpec dgxA100Node();

} // namespace vtrain

#endif // VTRAIN_HW_NODE_SPEC_H
