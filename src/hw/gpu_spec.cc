#include "hw/gpu_spec.h"

#include "util/logging.h"

namespace vtrain {

std::string
toString(Precision p)
{
    switch (p) {
      case Precision::FP16:
        return "fp16";
      case Precision::BF16:
        return "bf16";
      case Precision::FP32:
        return "fp32";
    }
    VTRAIN_PANIC("unknown precision");
}

double
GpuSpec::peakFlops(Precision p) const
{
    switch (p) {
      case Precision::FP16:
      case Precision::BF16:
        return peak_fp16_flops;
      case Precision::FP32:
        return peak_fp32_flops;
    }
    VTRAIN_PANIC("unknown precision");
}

GpuSpec
a100Sxm80GB()
{
    return GpuSpec{};
}

GpuSpec
a100Sxm40GB()
{
    GpuSpec spec;
    spec.name = "A100-SXM4-40GB";
    spec.memory_bytes = 40e9;
    spec.hbm_bandwidth = 1555e9;
    return spec;
}

} // namespace vtrain
