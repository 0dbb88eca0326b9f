/**
 * @file
 * Property-based tests of simulator-wide invariants:
 *
 *  - pipeline-schedule semantics recovered from engine traces (1F1B's
 *    in-flight micro-batch bound, GPipe's all-forward-then-backward
 *    structure — the Fig. 7 behaviours),
 *  - exact affinity of iteration time in the micro-batch count,
 *  - monotonicity of iteration time in model size and parallelism,
 *  - accounting invariants of the engine results.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "comm/comm_model.h"
#include "graph/builder.h"
#include "model/zoo.h"
#include "profiling/synthetic_profiler.h"
#include "sim/engine.h"
#include "sim/simulator.h"

namespace vtrain {
namespace {

ModelConfig
tinyModel()
{
    return makeModel(1024, 8, 16, 512, 8192);
}

ParallelConfig
plan(int t, int d, int p, int m, int batch,
     PipelineSchedule schedule = PipelineSchedule::OneFOneB)
{
    ParallelConfig out;
    out.tensor = t;
    out.data = d;
    out.pipeline = p;
    out.micro_batch_size = m;
    out.global_batch_size = batch;
    out.schedule = schedule;
    return out;
}

/** Traced iteration: per-op spans plus the op graph for metadata. */
struct TracedRun {
    OpGraph ops;
    std::vector<TaskSpan> spans;
    EngineResult result;
};

TracedRun
traceRun(const ParallelConfig &p, const ModelConfig &model)
{
    const ClusterSpec cluster = makeCluster(64);
    CommModel comm(cluster);
    TracedRun run;
    run.ops = GraphBuilder(model, p, cluster, comm).build();
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    ExpandOptions expand;
    expand.collapse_operators = true; // task i <-> op i
    const TaskGraph tasks = TaskGraph::expand(run.ops, table, expand);
    run.result = runSimulation(tasks, &run.spans);
    return run;
}

/**
 * Maximum number of micro-batches simultaneously "in flight" on a
 * stage: forward block started but backward block not yet finished.
 */
int
maxInFlight(const TracedRun &run, int stage, int n_micro)
{
    std::vector<double> fwd_start(n_micro, 1e300);
    std::vector<double> bwd_end(n_micro, 0.0);
    for (size_t i = 0; i < run.ops.numNodes(); ++i) {
        const OpNode &node = run.ops.nodes()[i];
        if (node.device != stage || node.micro_batch < 0 ||
            node.type != OpNodeType::Compute)
            continue;
        const OpDesc &desc = run.ops.descOf(node);
        if (isBackward(desc.kind)) {
            bwd_end[node.micro_batch] = std::max(
                bwd_end[node.micro_batch], run.spans[i].end);
        } else {
            fwd_start[node.micro_batch] = std::min(
                fwd_start[node.micro_batch], run.spans[i].start);
        }
    }
    int peak = 0;
    for (int a = 0; a < n_micro; ++a) {
        // Count micro-batches in flight at the instant fwd a starts
        // (a itself is included by its own interval).
        int live = 0;
        for (int b = 0; b < n_micro; ++b)
            if (fwd_start[b] <= fwd_start[a] &&
                bwd_end[b] > fwd_start[a])
                ++live;
        peak = std::max(peak, live);
    }
    return peak;
}

struct ScheduleCase {
    int p;
    int n_micro;
};

class ScheduleProps : public ::testing::TestWithParam<ScheduleCase>
{
};

TEST_P(ScheduleProps, OneFOneBBoundsInFlightMicroBatches)
{
    // Sec. II-B: 1F1B limits in-flight micro-batches to the pipeline
    // depth — the memory advantage over GPipe.
    const auto [p, n_micro] = GetParam();
    const auto run =
        traceRun(plan(1, 1, p, 1, n_micro), tinyModel());
    EXPECT_LE(maxInFlight(run, 0, n_micro), p + 1);
}

TEST_P(ScheduleProps, GPipeKeepsAllMicroBatchesInFlight)
{
    const auto [p, n_micro] = GetParam();
    if (n_micro <= p)
        GTEST_SKIP() << "GPipe == 1F1B when N <= p";
    const auto run = traceRun(
        plan(1, 1, p, 1, n_micro, PipelineSchedule::GPipe),
        tinyModel());
    EXPECT_EQ(maxInFlight(run, 0, n_micro), n_micro);
}

TEST_P(ScheduleProps, ForwardsArriveInMicroBatchOrderDownstream)
{
    // Strict cross-stage ordering (Sec. III-B): micro-batch i's
    // forward on the last stage cannot precede micro-batch i-1's.
    const auto [p, n_micro] = GetParam();
    const auto run =
        traceRun(plan(1, 1, p, 1, n_micro), tinyModel());
    std::vector<double> first_fwd(n_micro, 1e300);
    for (size_t i = 0; i < run.ops.numNodes(); ++i) {
        const OpNode &node = run.ops.nodes()[i];
        if (node.device != p - 1 || node.micro_batch < 0 ||
            node.type != OpNodeType::Compute)
            continue;
        if (!isBackward(run.ops.descOf(node).kind))
            first_fwd[node.micro_batch] =
                std::min(first_fwd[node.micro_batch],
                         run.spans[i].start);
    }
    for (int mb = 1; mb < n_micro; ++mb)
        EXPECT_GE(first_fwd[mb], first_fwd[mb - 1]);
}

/** Names each case by its fields (gtest otherwise prints the raw
 *  bytes, struct padding included, which differs between builds). */
void
PrintTo(const ScheduleCase &c, std::ostream *os)
{
    *os << 'p' << c.p << "_micro" << c.n_micro;
}

INSTANTIATE_TEST_SUITE_P(Grid, ScheduleProps,
                         ::testing::Values(ScheduleCase{2, 6},
                                           ScheduleCase{4, 8},
                                           ScheduleCase{4, 12},
                                           ScheduleCase{8, 16}));

TEST(AffinityProperty, IterationTimeExactlyAffineInMicroBatches)
{
    // The foundation of fast mode: beyond warmup, each micro-batch
    // adds a constant steady-state period.
    const ClusterSpec cluster = makeCluster(16);
    const ModelConfig model = tinyModel();
    CommModel comm(cluster);
    ParallelConfig p = plan(2, 2, 4, 1, 256);
    GraphBuilder builder(model, p, cluster, comm);
    SyntheticProfiler profiler(cluster.node.gpu);

    auto makespan_at = [&](int n_micro) {
        BuildOptions options;
        options.n_micro_override = n_micro;
        OperatorToTaskTable table(profiler);
        return runSimulation(
                   TaskGraph::expand(builder.build(options), table))
            .makespan;
    };
    const double t20 = makespan_at(20);
    const double t24 = makespan_at(24);
    const double t28 = makespan_at(28);
    EXPECT_NEAR(t24 - t20, t28 - t24, 1e-9 * t24);
}

class MonotoneData : public ::testing::TestWithParam<int>
{
};

TEST_P(MonotoneData, MoreReplicasNeverSlower)
{
    // Fixed work split across more data-parallel replicas cannot make
    // the iteration slower (fewer micro-batches each).
    const int d = GetParam();
    Simulator sim(makeCluster(64));
    const ModelConfig model = tinyModel();
    const double base = sim.simulateIteration(model,
                                              plan(2, d, 2, 1, 64))
                            .iteration_seconds;
    const double doubled =
        sim.simulateIteration(model, plan(2, 2 * d, 2, 1, 64))
            .iteration_seconds;
    EXPECT_LE(doubled, base * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Ds, MonotoneData, ::testing::Values(1, 2, 4));

TEST(MonotoneModel, WiderModelSlower)
{
    Simulator sim(makeCluster(8));
    const ParallelConfig p = plan(2, 1, 2, 1, 8);
    const double narrow =
        sim.simulateIteration(makeModel(1024, 8, 16, 512, 8192), p)
            .iteration_seconds;
    const double wide =
        sim.simulateIteration(makeModel(2048, 8, 16, 512, 8192), p)
            .iteration_seconds;
    // ~4x the GEMM FLOPs, partially offset by better tensor-core
    // efficiency at the larger shapes.
    EXPECT_GT(wide, 1.5 * narrow);
}

TEST(MonotoneModel, LongerSequenceSlower)
{
    Simulator sim(makeCluster(8));
    const ParallelConfig p = plan(2, 1, 2, 1, 8);
    const double short_seq =
        sim.simulateIteration(makeModel(1024, 8, 16, 512, 8192), p)
            .iteration_seconds;
    const double long_seq =
        sim.simulateIteration(makeModel(1024, 8, 16, 2048, 8192), p)
            .iteration_seconds;
    EXPECT_GT(long_seq, 3.0 * short_seq);
}

TEST(Accounting, BusyTimeNeverExceedsMakespanPerLane)
{
    const auto run = traceRun(plan(2, 2, 4, 1, 16), tinyModel());
    for (int dev = 0; dev < 4; ++dev) {
        EXPECT_LE(run.result.busy_compute[dev],
                  run.result.makespan * (1.0 + 1e-12));
        EXPECT_LE(run.result.busy_comm[dev],
                  run.result.makespan * (1.0 + 1e-12));
    }
}

TEST(Accounting, TagTotalsMatchBusyTotals)
{
    const auto run = traceRun(plan(2, 2, 4, 1, 16), tinyModel());
    double busy_sum = 0.0;
    for (int dev = 0; dev < 4; ++dev)
        busy_sum += run.result.busy_compute[dev] +
                    run.result.busy_comm[dev];
    double tag_sum = 0.0;
    for (double t : run.result.time_by_tag)
        tag_sum += t;
    EXPECT_NEAR(busy_sum, tag_sum, 1e-9 * busy_sum);
}

TEST(Accounting, TpTrafficScalesWithLayers)
{
    // Twice the layers -> twice the TP All-Reduce operators and time.
    Simulator sim(makeCluster(8));
    const ParallelConfig p = plan(2, 1, 2, 1, 8);
    const auto shallow =
        sim.simulateIteration(makeModel(1024, 8, 16, 512, 8192), p);
    const auto deep =
        sim.simulateIteration(makeModel(1024, 16, 16, 512, 8192), p);
    const double tp_shallow =
        shallow.time_by_tag[static_cast<size_t>(TaskTag::TpAllReduce)];
    const double tp_deep =
        deep.time_by_tag[static_cast<size_t>(TaskTag::TpAllReduce)];
    EXPECT_NEAR(tp_deep, 2.0 * tp_shallow, 1e-6 * tp_deep);
}

TEST(Accounting, UtilizationMatchesClosedForm)
{
    Simulator sim(makeCluster(16));
    const ModelConfig model = tinyModel();
    const ParallelConfig p = plan(2, 2, 4, 1, 32);
    const auto r = sim.simulateIteration(model, p);
    const double peak = 16.0 * 312e12;
    EXPECT_NEAR(r.utilization,
                model.modelFlops(32.0 * 512.0) /
                    (r.iteration_seconds * peak),
                1e-12);
}

} // namespace
} // namespace vtrain
