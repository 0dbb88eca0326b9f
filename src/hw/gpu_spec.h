/**
 * @file
 * GPU device model.
 *
 * vTrain's evaluation targets NVIDIA A100 GPUs (Sec. IV); GpuSpec
 * captures the handful of device parameters the kernel latency models
 * and the utilization math depend on.
 */
#ifndef VTRAIN_HW_GPU_SPEC_H
#define VTRAIN_HW_GPU_SPEC_H

#include <string>

namespace vtrain {

/** Numeric precision of a training run. */
enum class Precision {
    FP16, //!< half precision (the paper's validation setting)
    BF16, //!< bfloat16 (same A100 tensor-core throughput as FP16)
    FP32, //!< single precision
};

/** @return a short name such as "fp16". */
std::string toString(Precision p);

/** Static description of a GPU device. */
struct GpuSpec {
    std::string name = "A100-SXM4-80GB";

    /** Peak dense tensor-core throughput at FP16/BF16, FLOP/s. */
    double peak_fp16_flops = 312e12;

    /** Peak FP32 (non-tensor-core) throughput, FLOP/s. */
    double peak_fp32_flops = 19.5e12;

    /** HBM bandwidth, bytes/s. */
    double hbm_bandwidth = 2039e9;

    /** Device memory capacity, bytes. */
    double memory_bytes = 80e9;

    /** CUDA kernel launch overhead, seconds. */
    double kernel_launch_overhead = 4e-6;

    /** @return peak throughput for the given precision, FLOP/s. */
    double peakFlops(Precision p) const;

    bool operator==(const GpuSpec &) const = default;
};

/** GpuSpec's wire keys and fingerprint order (see util/hash.h). */
template <typename Visit>
void
fields(Visit &&visit, const GpuSpec *)
{
    visit("name", &GpuSpec::name);
    visit("peak_fp16_flops", &GpuSpec::peak_fp16_flops);
    visit("peak_fp32_flops", &GpuSpec::peak_fp32_flops);
    visit("hbm_bandwidth", &GpuSpec::hbm_bandwidth);
    visit("memory_bytes", &GpuSpec::memory_bytes);
    visit("kernel_launch_overhead", &GpuSpec::kernel_launch_overhead);
}

/** The 80 GB A100 used throughout the paper's evaluation. */
GpuSpec a100Sxm80GB();

/** The 40 GB A100 variant (same compute, half the memory). */
GpuSpec a100Sxm40GB();

} // namespace vtrain

#endif // VTRAIN_HW_GPU_SPEC_H
