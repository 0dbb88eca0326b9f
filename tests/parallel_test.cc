/**
 * @file
 * Unit tests for src/parallel/: plan validity rules and the per-GPU
 * memory-footprint model.
 */
#include <gtest/gtest.h>

#include <ostream>

#include "hw/cluster_spec.h"
#include "model/zoo.h"
#include "parallel/memory_model.h"
#include "parallel/parallel_config.h"

namespace vtrain {
namespace {

ParallelConfig
plan(int t, int d, int p, int m, int batch)
{
    ParallelConfig out;
    out.tensor = t;
    out.data = d;
    out.pipeline = p;
    out.micro_batch_size = m;
    out.global_batch_size = batch;
    return out;
}

TEST(ParallelConfig, TotalGpus)
{
    EXPECT_EQ(plan(8, 8, 35, 1, 1920).totalGpus(), 2240);
}

TEST(ParallelConfig, MicroBatchDerivations)
{
    const ParallelConfig p = plan(8, 8, 35, 1, 1920);
    EXPECT_EQ(p.batchPerReplica(), 240);
    EXPECT_EQ(p.numMicroBatches(), 240);
}

TEST(ParallelConfig, TokensPerIteration)
{
    const ParallelConfig p = plan(8, 8, 35, 1, 1920);
    // 1,920 sequences x 2,048 tokens, the MT-NLG batch (Sec. V-A).
    EXPECT_DOUBLE_EQ(p.tokensPerIteration(zoo::mtNlg530b()),
                     1920.0 * 2048.0);
}

TEST(ParallelConfig, ValidMtNlgPlan)
{
    const ClusterSpec cluster = makeCluster(3360);
    EXPECT_TRUE(plan(8, 8, 35, 1, 1920).valid(zoo::mtNlg530b(), cluster));
}

struct InvalidCase {
    ParallelConfig config;
    const char *why_substring;
};

class InvalidPlans : public ::testing::TestWithParam<InvalidCase>
{
};

TEST_P(InvalidPlans, RejectedWithReason)
{
    const ClusterSpec cluster = makeCluster(3360);
    std::string why;
    EXPECT_FALSE(
        GetParam().config.valid(zoo::mtNlg530b(), cluster, &why));
    EXPECT_NE(why.find(GetParam().why_substring), std::string::npos)
        << "actual reason: " << why;
}

/** Names each case by its fields (gtest otherwise prints the raw
 *  bytes, struct padding included, which differs between builds). */
void
PrintTo(const InvalidCase &c, std::ostream *os)
{
    const ParallelConfig &p = c.config;
    *os << 't' << p.tensor << "_d" << p.data << "_p" << p.pipeline << "_m"
        << p.micro_batch_size << "_b" << p.global_batch_size;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, InvalidPlans,
    ::testing::Values(
        // p = 34 does not divide L = 105.
        InvalidCase{plan(8, 8, 34, 1, 1920), "divide layer count"},
        // t = 3 does not divide the 8-GPU node.
        InvalidCase{plan(3, 8, 35, 1, 1920), "node GPU count"},
        // t = 12 spans nodes but not whole ones.
        InvalidCase{plan(12, 8, 35, 1, 1920), "whole nodes"},
        // d = 7 does not divide the batch of 1920.
        InvalidCase{plan(8, 7, 35, 1, 1920), "global batch"},
        // m = 7 does not divide the per-replica batch 240.
        InvalidCase{plan(8, 8, 35, 7, 1920), "per-replica"},
        // 16*32*105 = 53,760 GPUs exceeds the 3,360-GPU cluster.
        InvalidCase{plan(16, 32, 105, 1, 1920), "more GPUs"},
        // Non-positive degree.
        InvalidCase{plan(0, 8, 35, 1, 1920), "positive"}));

TEST(ParallelConfig, NodeSpanningTensorAllowed)
{
    // 16-way tensor parallelism on 8-GPU nodes is legal in the
    // Fig. 10 sweep (it pays inter-node All-Reduce latency).
    const ClusterSpec cluster = makeCluster(3360);
    EXPECT_TRUE(
        plan(16, 2, 105, 1, 1920).valid(zoo::mtNlg530b(), cluster));
}

TEST(ParallelConfig, ValidateThrows)
{
    const ClusterSpec cluster = makeCluster(3360);
    EXPECT_THROW(
        plan(8, 8, 34, 1, 1920).validate(zoo::mtNlg530b(), cluster),
        std::runtime_error);
}

TEST(ParallelConfig, BriefFormat)
{
    EXPECT_EQ(plan(8, 12, 21, 2, 1920).brief(), "(t=8,d=12,p=21,m=2)");
}

TEST(ParallelConfig, ScheduleNames)
{
    EXPECT_EQ(toString(PipelineSchedule::GPipe), "gpipe");
    EXPECT_EQ(toString(PipelineSchedule::OneFOneB), "1f1b");
}

// ---------------------------------------------------------------------
// Memory model
// ---------------------------------------------------------------------

TEST(MemoryModel, BreakdownSumsToTotal)
{
    const auto fp =
        estimateMemory(zoo::mtNlg530b(), plan(8, 8, 35, 1, 1920));
    EXPECT_DOUBLE_EQ(fp.total, fp.weights + fp.gradients +
                                   fp.optimizer_states +
                                   fp.activations);
    EXPECT_GT(fp.total, 0.0);
}

TEST(MemoryModel, ModelStatesAre16BytesPerParam)
{
    const auto fp =
        estimateMemory(zoo::mtNlg530b(), plan(8, 8, 35, 1, 1920));
    // weights:gradients:optimizer = 2:2:12.
    EXPECT_DOUBLE_EQ(fp.gradients, fp.weights);
    EXPECT_DOUBLE_EQ(fp.optimizer_states, 6.0 * fp.weights);
}

TEST(MemoryModel, MoreTensorParallelismShrinksFootprint)
{
    const ModelConfig m = zoo::scaled39_1b();
    const double t1 =
        estimateMemory(m, plan(1, 1, 2, 1, 1536)).total;
    const double t8 =
        estimateMemory(m, plan(8, 1, 2, 1, 1536)).total;
    EXPECT_LT(t8, t1);
}

TEST(MemoryModel, MorePipelineParallelismShrinksFootprint)
{
    const ModelConfig m = zoo::mtNlg530b();
    const double p5 =
        estimateMemory(m, plan(8, 1, 5, 1, 1920)).total;
    const double p35 =
        estimateMemory(m, plan(8, 1, 35, 1, 1920)).total;
    EXPECT_LT(p35, p5);
}

TEST(MemoryModel, LargerMicroBatchGrowsActivations)
{
    const ModelConfig m = zoo::scaled18_4b();
    const double m1 =
        estimateMemory(m, plan(8, 8, 1, 1, 1024)).activations;
    const double m4 =
        estimateMemory(m, plan(8, 8, 1, 4, 1024)).activations;
    EXPECT_GT(m4, m1);
}

TEST(MemoryModel, GPipeHoldsMoreActivationsThan1F1B)
{
    ModelConfig m = zoo::mtNlg530b();
    ParallelConfig p = plan(8, 8, 35, 1, 1920);
    p.schedule = PipelineSchedule::OneFOneB;
    const double act_1f1b = estimateMemory(m, p).activations;
    p.schedule = PipelineSchedule::GPipe;
    const double act_gpipe = estimateMemory(m, p).activations;
    // 240 in-flight micro-batches under GPipe vs 35 under 1F1B.
    EXPECT_GT(act_gpipe, 3.0 * act_1f1b);
}

TEST(MemoryModel, RecomputeShrinksActivations)
{
    ModelConfig m = zoo::scaled39_1b();
    ParallelConfig p = plan(8, 8, 2, 4, 1536);
    p.activation_recompute = true;
    const double with = estimateMemory(m, p).activations;
    p.activation_recompute = false;
    const double without = estimateMemory(m, p).activations;
    EXPECT_LT(with, without);
}

TEST(MemoryModel, BaselinePipelineDepthsMatchPaper)
{
    // The strengthened-ElasticFlow baseline (Sec. V-B) keeps minimal
    // (t, p): the 39.1B model needs (8, 2), i.e. it must NOT fit at
    // (8, 1) but must fit at (8, 2).
    const GpuSpec gpu = a100Sxm80GB();
    const ModelConfig m = zoo::scaled39_1b();
    EXPECT_FALSE(fitsInMemory(m, plan(8, 1, 1, 1, 1536), gpu));
    EXPECT_TRUE(fitsInMemory(m, plan(8, 1, 2, 1, 1536), gpu));
}

TEST(MemoryModel, MtNlgTrainingPlanFits)
{
    // The production MT-NLG plan must be feasible on 80 GB A100s.
    EXPECT_TRUE(fitsInMemory(zoo::mtNlg530b(),
                             plan(8, 8, 35, 1, 1920), a100Sxm80GB()));
}

TEST(MemoryModel, MtNlgGPipeFullBatchDoesNotFit)
{
    ParallelConfig p = plan(8, 8, 35, 1, 1920);
    p.schedule = PipelineSchedule::GPipe;
    EXPECT_FALSE(
        fitsInMemory(zoo::mtNlg530b(), p, a100Sxm80GB()));
}


TEST(ParallelConfig, EqualityAndHashing)
{
    const ParallelConfig a = plan(2, 4, 2, 1, 64);
    const ParallelConfig b = plan(2, 4, 2, 1, 64);
    EXPECT_EQ(a, b);
    EXPECT_EQ(hashValue(a), hashValue(b));

    ParallelConfig gpipe = a;
    gpipe.schedule = PipelineSchedule::GPipe;
    EXPECT_NE(gpipe, a);
    EXPECT_NE(hashValue(gpipe), hashValue(a));

    ParallelConfig zero1 = a;
    zero1.zero_stage = 1;
    EXPECT_NE(hashValue(zero1), hashValue(a));

    ParallelConfig fp32 = a;
    fp32.precision = Precision::FP32;
    EXPECT_NE(hashValue(fp32), hashValue(a));
}

} // namespace
} // namespace vtrain
