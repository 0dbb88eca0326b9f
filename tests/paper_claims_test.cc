/**
 * @file
 * Fences on the paper numbers this repository reproduces.
 *
 * The simulator is deterministic, so its predictions for the paper's
 * case-study plans are pinned exactly, as hex-float literals: a change
 * that claims bit-identical results and still moves one of them fails
 * here rather than only in a bench's printout.  A change that moves
 * them on purpose updates the literals and records old -> new.
 *
 *   - Table I: the six MT-NLG 530B plans on 3,360 GPUs, (8, {8, 10,
 *     12}, 35) and (8, {12, 16, 20}, 21) at m = 1 and a global batch
 *     of 1,920 (45.00 / 37.10 / 31.83 / 48.50 / 37.72 / 31.25 s).
 *   - Case Study #1 (examples/dse_mtnlg): the cheapest plan of the
 *     MT-NLG sweep on up to 2,048 GPUs under CostModel for 270B
 *     tokens, (t=8, d=1, p=21, m=2) at 518.602 s per iteration.
 */
#include <gtest/gtest.h>

#include <limits>

#include "cost/cost_model.h"
#include "explore/design_space.h"
#include "explore/explorer.h"
#include "model/zoo.h"
#include "sim/simulator.h"

namespace vtrain {
namespace {

ParallelConfig
mtNlgPlan(int t, int d, int p, int m)
{
    ParallelConfig plan;
    plan.tensor = t;
    plan.data = d;
    plan.pipeline = p;
    plan.micro_batch_size = m;
    plan.global_batch_size = 1920;
    return plan;
}

TEST(PaperClaims, TableOnePlansPredictPinnedIterationTimeAndUtilization)
{
    struct Row {
        int t, d, p;
        double iteration_seconds;
        double utilization;
    };
    const Row rows[] = {
        {8, 8, 35, 0x1.6807b50365b03p+5, 0x1.9d82bb62ddd72p-2},
        {8, 10, 35, 0x1.28ca95db26ba6p+5, 0x1.914ba5dce782ep-2},
        {8, 12, 35, 0x1.fd43acd5f9825p+4, 0x1.85c80314d8a49p-2},
        {8, 12, 21, 0x1.840501f0f3792p+5, 0x1.aa5056787b2e4p-2},
        {8, 16, 21, 0x1.2dc4fb8eeeb66p+5, 0x1.9b1ed11039357p-2},
        {8, 20, 21, 0x1.f409ef750ae96p+4, 0x1.8cf8fe3cb159p-2},
    };
    Simulator sim(makeCluster(3360));
    for (const Row &row : rows) {
        const ParallelConfig plan = mtNlgPlan(row.t, row.d, row.p, 1);
        const SimulationResult r =
            sim.simulateIteration(zoo::mtNlg530b(), plan);
        EXPECT_EQ(r.iteration_seconds, row.iteration_seconds)
            << plan.brief();
        EXPECT_EQ(r.utilization, row.utilization) << plan.brief();
    }
}

TEST(PaperClaims, CheapestMtnlgSweepPlanIsPinned)
{
    const ModelConfig model = zoo::mtNlg530b();
    const ClusterSpec cluster = makeCluster(2048);
    SweepSpec spec;
    spec.global_batch_size = 1920;
    spec.max_tensor = 8;
    spec.max_data = 32;
    spec.max_pipeline = 105;
    spec.micro_batch_sizes = {1, 2};
    spec.max_gpus = 2048;
    Explorer explorer(cluster);
    const std::vector<ExploreResult> results = explorer.sweep(model, spec);
    ASSERT_EQ(results.size(), 56u);

    const CostModel cost;
    const ExploreResult *cheapest = nullptr;
    double cheapest_dollars = std::numeric_limits<double>::infinity();
    for (const ExploreResult &r : results) {
        const double dollars =
            cost.evaluate(model, r.plan, r.sim, 270e9).total_dollars;
        if (dollars < cheapest_dollars) {
            cheapest_dollars = dollars;
            cheapest = &r;
        }
    }
    ASSERT_NE(cheapest, nullptr);
    EXPECT_EQ(cheapest->plan.tensor, 8);
    EXPECT_EQ(cheapest->plan.data, 1);
    EXPECT_EQ(cheapest->plan.pipeline, 21);
    EXPECT_EQ(cheapest->plan.micro_batch_size, 2);
    EXPECT_EQ(cheapest->sim.iteration_seconds, 0x1.034d0e6b77ac6p+9);
    EXPECT_EQ(cheapest->sim.utilization, 0x1.de7432e5aff44p-2);
    EXPECT_EQ(cheapest_dollars, 0x1.fb236b67bc651p+22);
}

} // namespace
} // namespace vtrain
