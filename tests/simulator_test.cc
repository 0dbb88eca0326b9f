/**
 * @file
 * Tests of the Simulator facade: fast-mode/exact equivalence,
 * monotonicity and plausibility properties of predicted iteration
 * times, and the end-to-end training projection.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "model/zoo.h"
#include "sim/simulator.h"

namespace vtrain {
namespace {

ModelConfig
tinyModel()
{
    return makeModel(1024, 8, 16, 512, 8192);
}

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

struct FastExactCase {
    int t, d, p, m, batch;
    PipelineSchedule schedule;
    bool bucketing;
};

class FastExact : public ::testing::TestWithParam<FastExactCase>
{
};

TEST_P(FastExact, ExtrapolationMatchesExactSimulation)
{
    // Iteration time is affine in the micro-batch count once the
    // pipeline is full, so the fast mode's two-point extrapolation
    // must agree with the exact simulation.
    const FastExactCase c = GetParam();
    const ClusterSpec cluster = makeCluster(64);
    ParallelConfig p = plan(c.t, c.d, c.p, c.m, c.batch);
    p.schedule = c.schedule;
    p.gradient_bucketing = c.bucketing;

    SimOptions fast_options;
    fast_options.fast_mode = true;
    Simulator fast(cluster, fast_options);
    SimOptions exact_options;
    exact_options.fast_mode = false;
    Simulator exact(cluster, exact_options);

    const auto model = tinyModel();
    const auto r_fast = fast.simulateIteration(model, p);
    const auto r_exact = exact.simulateIteration(model, p);
    ASSERT_TRUE(r_fast.extrapolated);
    ASSERT_FALSE(r_exact.extrapolated);
    EXPECT_NEAR(r_fast.iteration_seconds, r_exact.iteration_seconds,
                1e-6 * r_exact.iteration_seconds);
}

/** Names each case by its fields (gtest otherwise prints the raw
 *  bytes, struct padding included, which differs between builds). */
void
PrintTo(const FastExactCase &c, std::ostream *os)
{
    *os << 't' << c.t << "_d" << c.d << "_p" << c.p << "_m" << c.m << "_b"
        << c.batch
        << (c.schedule == PipelineSchedule::GPipe ? "_gpipe" : "_1f1b")
        << (c.bucketing ? "_bucket" : "_nobucket");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FastExact,
    ::testing::Values(
        FastExactCase{1, 1, 2, 1, 64, PipelineSchedule::OneFOneB, true},
        FastExactCase{2, 2, 2, 1, 128, PipelineSchedule::OneFOneB,
                      true},
        FastExactCase{2, 2, 2, 1, 128, PipelineSchedule::GPipe, true},
        FastExactCase{2, 1, 4, 2, 128, PipelineSchedule::OneFOneB,
                      false},
        FastExactCase{1, 4, 1, 1, 64, PipelineSchedule::OneFOneB,
                      true},
        FastExactCase{4, 2, 8, 1, 256, PipelineSchedule::GPipe,
                      true}));

TEST(Simulator, SmallMicroBatchCountRunsExact)
{
    Simulator sim(makeCluster(8));
    const auto r =
        sim.simulateIteration(tinyModel(), plan(2, 2, 2, 1, 8));
    EXPECT_FALSE(r.extrapolated);
    // batch 8 / (d=2 * m=1) = 4 micro-batches, below the fast-mode
    // cap of 2p+2 = 6, so the simulation is exact.
    EXPECT_EQ(r.simulated_micro_batches, 4);
}

TEST(Simulator, UtilizationInUnitInterval)
{
    Simulator sim(makeCluster(64));
    for (int d : {1, 2, 4}) {
        const auto r = sim.simulateIteration(
            tinyModel(), plan(2, d, 2, 1, 64));
        EXPECT_GT(r.utilization, 0.0);
        EXPECT_LT(r.utilization, 1.0);
    }
}

TEST(Simulator, MoreDataParallelismFasterIteration)
{
    Simulator sim(makeCluster(64));
    const auto model = tinyModel();
    const auto d1 =
        sim.simulateIteration(model, plan(2, 1, 2, 1, 64));
    const auto d4 =
        sim.simulateIteration(model, plan(2, 4, 2, 1, 64));
    EXPECT_LT(d4.iteration_seconds, d1.iteration_seconds);
}

TEST(Simulator, RecomputeCostsTime)
{
    Simulator sim(makeCluster(8));
    const auto model = tinyModel();
    ParallelConfig p = plan(2, 1, 2, 1, 16);
    p.activation_recompute = true;
    const double with = sim.simulateIteration(model, p)
                            .iteration_seconds;
    p.activation_recompute = false;
    const double without = sim.simulateIteration(model, p)
                               .iteration_seconds;
    EXPECT_GT(with, without);
    // The recompute penalty is bounded by the forward pass (~33%).
    EXPECT_LT(with, 1.5 * without);
}

TEST(Simulator, BucketingNeverSlower)
{
    Simulator sim(makeCluster(64));
    const auto model = tinyModel();
    ParallelConfig p = plan(2, 8, 2, 1, 64);
    p.gradient_bucketing = true;
    const double bucketed =
        sim.simulateIteration(model, p).iteration_seconds;
    p.gradient_bucketing = false;
    const double single =
        sim.simulateIteration(model, p).iteration_seconds;
    EXPECT_LE(bucketed, single * (1.0 + 1e-9));
}

TEST(Simulator, NoTensorParallelNoTpTraffic)
{
    Simulator sim(makeCluster(8));
    const auto r =
        sim.simulateIteration(tinyModel(), plan(1, 2, 2, 1, 8));
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::TpAllReduce)], 0.0);
}

TEST(Simulator, NoPipelineNoP2PTraffic)
{
    Simulator sim(makeCluster(8));
    const auto r =
        sim.simulateIteration(tinyModel(), plan(2, 2, 1, 1, 8));
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::PipeSendRecv)],
        0.0);
}

TEST(Simulator, NoDataParallelNoDpTraffic)
{
    Simulator sim(makeCluster(8));
    const auto r =
        sim.simulateIteration(tinyModel(), plan(2, 1, 2, 1, 8));
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::DpAllReduce)], 0.0);
}

TEST(Simulator, TensorParallelTrafficPresent)
{
    Simulator sim(makeCluster(8));
    const auto r =
        sim.simulateIteration(tinyModel(), plan(2, 1, 2, 1, 8));
    EXPECT_GT(
        r.time_by_tag[static_cast<size_t>(TaskTag::TpAllReduce)], 0.0);
}

TEST(Simulator, DeterministicAcrossCalls)
{
    Simulator sim(makeCluster(64));
    const auto model = tinyModel();
    const auto a =
        sim.simulateIteration(model, plan(2, 2, 4, 1, 64));
    const auto b =
        sim.simulateIteration(model, plan(2, 2, 4, 1, 64));
    EXPECT_DOUBLE_EQ(a.iteration_seconds, b.iteration_seconds);
}

TEST(Simulator, GPipeAndOneFOneBSimilarMakespan)
{
    // With uniform stages both schedules have the same bubble count;
    // their iteration times should be close (1F1B's benefit is
    // memory, not time).
    Simulator sim(makeCluster(16));
    const auto model = tinyModel();
    ParallelConfig p = plan(1, 2, 4, 1, 32);
    p.schedule = PipelineSchedule::OneFOneB;
    const double t_1f1b =
        sim.simulateIteration(model, p).iteration_seconds;
    p.schedule = PipelineSchedule::GPipe;
    const double t_gpipe =
        sim.simulateIteration(model, p).iteration_seconds;
    EXPECT_NEAR(t_1f1b, t_gpipe, 0.1 * t_gpipe);
}

TEST(Simulator, BubbleFractionGrowsWithDepth)
{
    Simulator sim(makeCluster(32));
    const auto model = tinyModel();
    const auto shallow =
        sim.simulateIteration(model, plan(1, 1, 2, 1, 16));
    const auto deep =
        sim.simulateIteration(model, plan(1, 1, 8, 1, 16));
    EXPECT_GT(deep.bubble_fraction, shallow.bubble_fraction);
}

TEST(Simulator, ProfilesOnlyNecessaryOperators)
{
    // O(1) distinct operators regardless of the micro-batch count
    // (Sec. III-C / III-F).
    Simulator sim(makeCluster(64));
    const auto r =
        sim.simulateIteration(tinyModel(), plan(2, 1, 2, 1, 256));
    EXPECT_LE(r.distinct_operators_profiled, 12u);
    EXPECT_EQ(r.profiler_calls, r.distinct_operators_profiled);
}

TEST(Simulator, AblationCollapseMatchesFull)
{
    SimOptions collapsed_options;
    collapsed_options.collapse_operators = true;
    Simulator collapsed(makeCluster(16), collapsed_options);
    Simulator full(makeCluster(16));
    const auto model = tinyModel();
    const auto p = plan(2, 2, 2, 1, 32);
    EXPECT_NEAR(collapsed.simulateIteration(model, p).iteration_seconds,
                full.simulateIteration(model, p).iteration_seconds,
                1e-9);
}

TEST(Simulator, ProjectTrainingArithmetic)
{
    Simulator sim(makeCluster(16));
    const auto model = tinyModel();
    const auto p = plan(2, 2, 2, 1, 32);
    const double tokens = 1e9;
    const auto proj = sim.projectTraining(model, p, tokens);
    const double tokens_per_iter = 32.0 * 512.0;
    EXPECT_DOUBLE_EQ(proj.num_iterations,
                     std::ceil(tokens / tokens_per_iter));
    EXPECT_NEAR(proj.total_seconds,
                proj.iteration_seconds * proj.num_iterations, 1e-9);
    EXPECT_NEAR(proj.total_days, proj.total_seconds / 86400.0, 1e-12);
}

TEST(Simulator, InvalidPlanRejected)
{
    Simulator sim(makeCluster(8));
    EXPECT_THROW(
        sim.simulateIteration(tinyModel(), plan(3, 1, 1, 1, 8)),
        std::runtime_error);
}

TEST(Simulator, IterationTimeScalesWithModelDepth)
{
    Simulator sim(makeCluster(8));
    const auto p = plan(2, 1, 2, 1, 8);
    const auto small = makeModel(1024, 4, 16, 512, 8192);
    const auto deep = makeModel(1024, 16, 16, 512, 8192);
    EXPECT_GT(sim.simulateIteration(deep, p).iteration_seconds,
              2.0 * sim.simulateIteration(small, p).iteration_seconds);
}

} // namespace
} // namespace vtrain
