/**
 * @file
 * Differential tests: every simulation path against the kernel-level
 * queue oracle, over seeded random (model, plan, cluster, options)
 * draws.
 *
 * The oracle is the template-less Simulator (TaskGraph::expand plus
 * runSimulation on every call).  Each drawn case must agree with it
 * bit for bit, on every SimulationResult field except the wall clock,
 * through the templated cold call, its warm repeat, and
 * simulateIterationBatch cold and warm at group sizes 1-9 (every
 * lockstep chunk and tail width).  Every extrapolated (fast-mode) draw
 * must also match the exact-mode oracle within a relative 1e-6.  A captured template's replay
 * schedule must also equal, array for array, the schedule derived
 * from the fully expanded kernel-level topology.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/builder.h"
#include "graph/template.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vtrain {
namespace {

struct Case {
    ModelConfig model;
    ParallelConfig plan;
    SimOptions options;
    ClusterSpec cluster;
};

template <typename T>
T
pick(Rng &rng, std::initializer_list<T> values)
{
    const auto i = rng.uniformInt(0, static_cast<int64_t>(values.size()) - 1);
    return values.begin()[i];
}

bool
coin(Rng &rng)
{
    return rng.uniformInt(0, 1) == 1;
}

/** Widest data-parallel degree a batch variant may use (see
 *  variants()); clusters are sized for it. */
constexpr int kMaxVariantData = 4;

/**
 * Draws one valid case: a small model shape, a (t, d, p, m, gbs) plan
 * with random schedule, ZeRO stage, bucketing and recompute, the
 * expansion mode and fast/exact mode, and a cluster large enough for
 * the plan and its batch variants.
 */
Case
drawCase(Rng &rng)
{
    Case c;
    const int64_t layers = pick<int64_t>(rng, {2, 4, 6, 8});
    c.model = makeModel(pick<int64_t>(rng, {256, 512, 1024}), layers,
                        8, pick<int64_t>(rng, {128, 256, 512}),
                        pick<int64_t>(rng, {4096, 8192}));

    ParallelConfig &plan = c.plan;
    plan.tensor = pick(rng, {1, 2, 4, 8});
    do {
        plan.pipeline = pick(rng, {1, 2, 3, 4});
    } while (layers % plan.pipeline != 0);
    plan.data = pick(rng, {1, 2, 3, 4});
    plan.micro_batch_size = pick(rng, {1, 2});
    const int n_micro =
        static_cast<int>(rng.uniformInt(1, 3 * plan.pipeline + 6));
    plan.global_batch_size = plan.data * plan.micro_batch_size * n_micro;
    plan.schedule = coin(rng) ? PipelineSchedule::GPipe
                              : PipelineSchedule::OneFOneB;
    plan.zero_stage = plan.data > 1 && coin(rng) ? 1 : 0;
    plan.gradient_bucketing = coin(rng);
    plan.bucket_bytes = pick(rng, {2e6, 25e6});
    plan.activation_recompute = coin(rng);

    c.options.fast_mode = coin(rng);
    c.options.collapse_operators = rng.uniformInt(0, 3) == 0;

    const int need = plan.tensor * kMaxVariantData * plan.pipeline;
    c.cluster = makeCluster(((need + 7) / 8) * 8 * pick(rng, {1, 2}));
    return c;
}

std::string
describe(const Case &c)
{
    const ParallelConfig &p = c.plan;
    return "h=" + std::to_string(c.model.hidden_size) +
           " L=" + std::to_string(c.model.num_layers) +
           " s=" + std::to_string(c.model.seq_length) + " plan " +
           p.brief() + " gbs=" + std::to_string(p.global_batch_size) +
           " " + toString(p.schedule) +
           " zero=" + std::to_string(p.zero_stage) +
           " bucketing=" + std::to_string(p.gradient_bucketing) +
           " recompute=" + std::to_string(p.activation_recompute) +
           " fast=" + std::to_string(c.options.fast_mode) +
           " collapse=" + std::to_string(c.options.collapse_operators) +
           " gpus=" + std::to_string(c.cluster.totalGpus());
}

/** Every field but the wall clock, compared by bytes: -0.0 vs +0.0
 *  or a one-ulp drift fails. */
void
expectBitIdentical(const SimulationResult &want, const SimulationResult &got,
                   const std::string &where)
{
    fields(
        [&](std::string_view name, auto member) {
            if (name == "sim_wall_seconds")
                return;
            using T = std::remove_cvref_t<decltype(want.*member)>;
            EXPECT_EQ(0, std::memcmp(&(want.*member), &(got.*member),
                                     sizeof(T)))
                << where << ": field " << name;
        },
        static_cast<const SimulationResult *>(nullptr));
}

/**
 * K plans sharing one batch group with `c.plan`: fast-mode points vary
 * the global batch size, exact points without ZeRO vary the DP degree,
 * and anything else repeats the plan (still K distinct batch points).
 */
std::vector<ParallelConfig>
variants(const Case &c, int k)
{
    const ParallelConfig &base = c.plan;
    const int n_micro = base.numMicroBatches();
    const int cap = std::max(2 * base.pipeline + 2, 4);
    const bool fast = c.options.fast_mode && n_micro > cap + 1;
    std::vector<ParallelConfig> plans;
    for (int i = 0; i < k; ++i) {
        ParallelConfig plan = base;
        if (fast) {
            plan.global_batch_size =
                base.data * base.micro_batch_size * (n_micro + i);
        } else if (base.data > 1 && base.zero_stage == 0) {
            plan.data = 2 + i % (kMaxVariantData - 1);
            plan.global_batch_size =
                plan.data * base.micro_batch_size * n_micro;
        }
        plans.push_back(plan);
    }
    return plans;
}

constexpr uint64_t kSeed = 20240917;

TEST(DifferentialOracle, SingleCallColdAndWarmMatchTheOracle)
{
    Rng rng(kSeed);
    for (int i = 0; i < 64; ++i) {
        const Case c = drawCase(rng);
        const std::string where = "case " + std::to_string(i) + " " +
                                  describe(c);
        Simulator oracle(c.cluster, c.options, nullptr);
        const SimulationResult want =
            oracle.simulateIteration(c.model, c.plan);

        Simulator sim(c.cluster, c.options,
                      std::make_shared<GraphTemplateCache>());
        expectBitIdentical(want, sim.simulateIteration(c.model, c.plan),
                           where + " (cold)");
        expectBitIdentical(want, sim.simulateIteration(c.model, c.plan),
                           where + " (warm)");
        const EngineStats stats = snapshot(*sim.engineCounters());
        const uint64_t runs = want.extrapolated ? 2 : 1;
        EXPECT_EQ(stats.queue_runs, runs) << where;
        EXPECT_EQ(stats.replay_runs, runs) << where;

        if (want.extrapolated) {
            // Fast mode's affine tail against the exact-mode oracle,
            // within the band of simulator_test.cc's FastExact grid.
            SimOptions exact_options = c.options;
            exact_options.fast_mode = false;
            Simulator exact(c.cluster, exact_options, nullptr);
            const double exact_seconds =
                exact.simulateIteration(c.model, c.plan).iteration_seconds;
            EXPECT_NEAR(want.iteration_seconds, exact_seconds,
                        1e-6 * exact_seconds)
                << where << " (fast vs exact)";
        }
    }
}

TEST(DifferentialOracle, BatchColdAndWarmMatchAtEveryWidth)
{
    Rng rng(kSeed + 1);
    for (int i = 0; i < 16; ++i) {
        const Case c = drawCase(rng);
        const std::vector<ParallelConfig> plans = variants(c, 9);
        std::vector<SimulationResult> want;
        Simulator oracle(c.cluster, c.options, nullptr);
        for (const ParallelConfig &plan : plans)
            want.push_back(oracle.simulateIteration(c.model, plan));
        const uint64_t passes = want[0].extrapolated ? 2 : 1;

        for (size_t k = 1; k <= plans.size(); ++k) {
            const std::vector<ParallelConfig> group(plans.begin(),
                                                    plans.begin() + k);
            Simulator sim(c.cluster, c.options,
                          std::make_shared<GraphTemplateCache>());
            for (const char *phase : {"cold", "warm"}) {
                const std::vector<SimulationResult> got =
                    sim.simulateIterationBatch(c.model, group);
                ASSERT_EQ(got.size(), k);
                for (size_t j = 0; j < k; ++j)
                    expectBitIdentical(
                        want[j], got[j],
                        "case " + std::to_string(i) + " " + describe(c) +
                            " K=" + std::to_string(k) + " point " +
                            std::to_string(j) + " (" + phase + ")");
            }
            const EngineStats stats = snapshot(*sim.engineCounters());
            EXPECT_EQ(stats.batched_points, 2 * k * passes)
                << "case " << i << " K=" << k
                << ": every point must take the batched pass";
            EXPECT_EQ(stats.queue_runs + stats.replay_runs, 0u);
        }
    }
}

TEST(DifferentialSchedule, CapturedScheduleEqualsKernelLevelBuild)
{
    Rng rng(kSeed + 2);
    for (int i = 0; i < 48; ++i) {
        const Case c = drawCase(rng);
        const std::string where = "case " + std::to_string(i) + " " +
                                  describe(c);
        CommModel comm(c.cluster);
        GraphBuilder builder(c.model, c.plan, c.cluster, comm);
        const OpGraph ops = builder.build();
        SyntheticProfiler profiler(c.cluster.node.gpu, c.plan.precision,
                                   c.options.attention);
        OperatorToTaskTable table(profiler);
        ExpandOptions expand;
        expand.collapse_operators = c.options.collapse_operators;
        TaskGraph expanded;
        const auto tmpl =
            GraphTemplate::capture(ops, table, expand, &expanded);
        ASSERT_EQ(tmpl->numTasks(), expanded.numTasks()) << where;
        ASSERT_EQ(tmpl->numOperators(), ops.numNodes()) << where;

        const auto want = ReplaySchedule::build(*expanded.topology());
        const ReplaySchedule &got = tmpl->schedule();
        EXPECT_EQ(want->order, got.order) << where;
        EXPECT_EQ(want->lane, got.lane) << where;
        EXPECT_EQ(want->busy_lane, got.busy_lane) << where;
        EXPECT_EQ(want->tag, got.tag) << where;
        EXPECT_EQ(want->child_offsets, got.child_offsets) << where;
        EXPECT_EQ(want->child_list, got.child_list) << where;
        EXPECT_EQ(want->num_devices, got.num_devices) << where;

        // The retimed durations line up with the expanded task ids.
        std::vector<double> durations;
        ASSERT_TRUE(tmpl->retimeDurations(table, c.plan, c.cluster, comm,
                                          &durations))
            << where;
        ASSERT_EQ(durations.size(), expanded.numTasks()) << where;
        EXPECT_EQ(0, std::memcmp(durations.data(),
                                 expanded.durations().data(),
                                 durations.size() * sizeof(double)))
            << where;
    }
}

} // namespace
} // namespace vtrain
