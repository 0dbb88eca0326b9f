/**
 * @file
 * Enumeration of the (t, d, p, m) design space (paper Sec. V-A).
 *
 * The paper sweeps tensor parallelism up to 16-way, data parallelism
 * up to 32-way and pipeline parallelism up to 105-way for MT-NLG,
 * discarding plans that violate divisibility or GPU-memory
 * constraints.
 */
#ifndef VTRAIN_EXPLORE_DESIGN_SPACE_H
#define VTRAIN_EXPLORE_DESIGN_SPACE_H

#include <vector>

#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"

namespace vtrain {

/** Bounds and fixed knobs of a design-space sweep. */
struct SweepSpec {
    int max_tensor = 8;    //!< t sweeps powers of two up to this
    int max_data = 32;     //!< d sweeps divisors of the batch up to this
    int max_pipeline = 0;  //!< p sweeps divisors of L up to this (0 = L)
    std::vector<int> micro_batch_sizes = {1, 2, 4, 8, 16};

    int min_gpus = 0; //!< discard plans using fewer GPUs
    int max_gpus = 0; //!< discard plans using more GPUs (0 = cluster)

    /** When set, t*d*p must equal this exact GPU count. */
    int exact_gpus = 0;

    /** Reject plans whose footprint exceeds GPU memory. */
    bool require_memory_fit = true;

    int global_batch_size = 1;
    PipelineSchedule schedule = PipelineSchedule::OneFOneB;
    bool gradient_bucketing = true;
    bool activation_recompute = true;
    Precision precision = Precision::FP16;
};

/** SweepSpec's wire keys, in order (see util/hash.h). */
template <typename Visit>
void
fields(Visit &&visit, const SweepSpec *)
{
    visit("max_tensor", &SweepSpec::max_tensor);
    visit("max_data", &SweepSpec::max_data);
    visit("max_pipeline", &SweepSpec::max_pipeline);
    visit("micro_batch_sizes", &SweepSpec::micro_batch_sizes);
    visit("min_gpus", &SweepSpec::min_gpus);
    visit("max_gpus", &SweepSpec::max_gpus);
    visit("exact_gpus", &SweepSpec::exact_gpus);
    visit("require_memory_fit", &SweepSpec::require_memory_fit);
    visit("global_batch_size", &SweepSpec::global_batch_size);
    visit("schedule", &SweepSpec::schedule);
    visit("gradient_bucketing", &SweepSpec::gradient_bucketing);
    visit("activation_recompute", &SweepSpec::activation_recompute);
    visit("precision", &SweepSpec::precision);
}

/** @return all valid plans for the model under the sweep bounds. */
std::vector<ParallelConfig> enumeratePlans(const ModelConfig &model,
                                           const ClusterSpec &cluster,
                                           const SweepSpec &spec);

} // namespace vtrain

#endif // VTRAIN_EXPLORE_DESIGN_SPACE_H
