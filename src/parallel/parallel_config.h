/**
 * @file
 * 3D-parallel training-plan description.
 *
 * A (t, d, p)-way plan (Sec. II-B, Fig. 3) combines t-way tensor
 * parallelism (intra-node), d-way data parallelism and p-way pipeline
 * parallelism, plus the micro-batch size and pipeline schedule.
 */
#ifndef VTRAIN_PARALLEL_PARALLEL_CONFIG_H
#define VTRAIN_PARALLEL_PARALLEL_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "util/hash.h"

namespace vtrain {

/** Pipeline schedule (paper Fig. 7). */
enum class PipelineSchedule {
    GPipe,    //!< all forwards, then all backwards
    OneFOneB, //!< PipeDream-style one-forward-one-backward
};

/** @return "gpipe" or "1f1b". */
std::string toString(PipelineSchedule s);

/** A complete parallelization strategy for one training job. */
struct ParallelConfig {
    int tensor = 1;   //!< t: tensor-parallel degree (intra-node)
    int data = 1;     //!< d: data-parallel degree
    int pipeline = 1; //!< p: pipeline-parallel degree

    /** Micro-batch size m, in sequences. */
    int micro_batch_size = 1;

    /** Global batch size, in sequences, across all replicas. */
    int global_batch_size = 1;

    PipelineSchedule schedule = PipelineSchedule::OneFOneB;

    /** PyTorch-DDP-style gradient bucketing (Fig. 5). */
    bool gradient_bucketing = true;

    /** Gradient bucket size in bytes (DDP default is 25 MB). */
    double bucket_bytes = 25e6;

    /** Full activation recomputation (Megatron-style checkpointing). */
    bool activation_recompute = true;

    /**
     * ZeRO optimizer-state sharding stage (0 or 1).  The modelled
     * framework is Megatron-DeepSpeed (Sec. IV), whose ZeRO-1 shards
     * the fp32 master weights and Adam moments across the d
     * data-parallel ranks: gradients are Reduce-Scattered instead of
     * All-Reduced, each rank updates its 1/d parameter shard, and the
     * updated fp16 parameters are All-Gathered.
     */
    int zero_stage = 0;

    Precision precision = Precision::FP16;

    /** @return total GPUs used: t * d * p. */
    int totalGpus() const { return tensor * data * pipeline; }

    /** @return sequences processed per replica per iteration. */
    int batchPerReplica() const { return global_batch_size / data; }

    /** @return micro-batches per pipeline per iteration. */
    int numMicroBatches() const
    {
        return batchPerReplica() / micro_batch_size;
    }

    /** @return tokens consumed per iteration for the given model. */
    double
    tokensPerIteration(const ModelConfig &model) const
    {
        return static_cast<double>(global_batch_size) *
               static_cast<double>(model.seq_length);
    }

    /** A short "(t,d,p,m)" descriptor. */
    std::string brief() const;

    /**
     * Checks plan validity against a model and cluster without
     * throwing.
     *
     * Rules: t divides the node's GPU count (tensor parallelism stays
     * intra-node, Sec. II-B) as well as h, n and V; p divides L; d*m
     * divides the global batch; t*d*p GPUs fit in the cluster.
     *
     * @param why optional out-parameter receiving the failure reason.
     */
    bool valid(const ModelConfig &model, const ClusterSpec &cluster,
               std::string *why = nullptr) const;

    /** Like valid() but throws a fatal error on failure. */
    void validate(const ModelConfig &model,
                  const ClusterSpec &cluster) const;

    bool operator==(const ParallelConfig &) const = default;
};

/** ParallelConfig's wire keys and fingerprint order (util/hash.h). */
template <typename Visit>
void
fields(Visit &&visit, const ParallelConfig *)
{
    visit("tensor", &ParallelConfig::tensor);
    visit("data", &ParallelConfig::data);
    visit("pipeline", &ParallelConfig::pipeline);
    visit("micro_batch_size", &ParallelConfig::micro_batch_size);
    visit("global_batch_size", &ParallelConfig::global_batch_size);
    visit("schedule", &ParallelConfig::schedule);
    visit("gradient_bucketing", &ParallelConfig::gradient_bucketing);
    visit("bucket_bytes", &ParallelConfig::bucket_bytes);
    visit("activation_recompute", &ParallelConfig::activation_recompute);
    visit("zero_stage", &ParallelConfig::zero_stage);
    visit("precision", &ParallelConfig::precision);
}

} // namespace vtrain

/** Enables ParallelConfig keys in std::unordered_map / set. */
template <> struct std::hash<vtrain::ParallelConfig> {
    size_t operator()(const vtrain::ParallelConfig &p) const
    {
        return static_cast<size_t>(vtrain::hashValue(p));
    }
};

#endif // VTRAIN_PARALLEL_PARALLEL_CONFIG_H
