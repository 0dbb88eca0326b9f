/**
 * @file
 * Tests of the build-once/retime-many graph-template subsystem:
 * golden bit-identity of the template path against from-scratch
 * builds across a sweep grid, structural-fingerprint sharing and
 * collision resistance, LRU/byte-budget eviction, graceful retime
 * rejection, and concurrent use of a shared cache.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/template.h"
#include "model/zoo.h"
#include "sim/simulator.h"

namespace vtrain {
namespace {

ModelConfig
tinyModel()
{
    return makeModel(1024, 8, 16, 512, 8192);
}

struct GoldenCase {
    int t, d, p, m, batch;
    PipelineSchedule schedule = PipelineSchedule::OneFOneB;
    bool bucketing = true;
    int zero_stage = 0;
    bool fast_mode = true;
    bool collapse = false;
};

ParallelConfig
planOf(const GoldenCase &c)
{
    ParallelConfig plan;
    plan.tensor = c.t;
    plan.data = c.d;
    plan.pipeline = c.p;
    plan.micro_batch_size = c.m;
    plan.global_batch_size = c.batch;
    plan.schedule = c.schedule;
    plan.gradient_bucketing = c.bucketing;
    plan.zero_stage = c.zero_stage;
    return plan;
}

SimOptions
optionsOf(const GoldenCase &c)
{
    SimOptions options;
    options.fast_mode = c.fast_mode;
    options.collapse_operators = c.collapse;
    return options;
}

/** Strips the wall-clock field, the only legitimately varying one. */
SimulationResult
timeless(SimulationResult r)
{
    r.sim_wall_seconds = 0.0;
    return r;
}

class TemplateGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(TemplateGolden, BitIdenticalToFromScratchBuild)
{
    const GoldenCase c = GetParam();
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(c);
    const SimOptions options = optionsOf(c);

    // Reference: the template path disabled entirely.
    Simulator scratch(cluster, options, nullptr);
    const SimulationResult want =
        timeless(scratch.simulateIteration(model, plan));

    // Cold: capture path (miss -> build -> capture).
    auto cache = std::make_shared<GraphTemplateCache>();
    Simulator cold(cluster, options, cache);
    const SimulationResult got_cold =
        timeless(cold.simulateIteration(model, plan));
    EXPECT_EQ(want, got_cold);
    EXPECT_GT(cache->stats().insertions, 0u);

    // Warm: retime path (hit) through a fresh Simulator sharing the
    // cache, exactly how the serve layer issues requests.
    Simulator warm(cluster, options, cache);
    const SimulationResult got_warm =
        timeless(warm.simulateIteration(model, plan));
    EXPECT_EQ(want, got_warm);
    EXPECT_GT(cache->stats().hits, 0u);
}

/**
 * Prints a case as its fields (e.g. t2_d2_p2_m1_b32_gpipe_nobucket_z0_fast).
 * ctest names each grid case after this printout, so without it the
 * names would be gtest's raw byte dump of the struct, padding
 * included, which differs from build to build.
 */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << 't' << c.t << "_d" << c.d << "_p" << c.p << "_m" << c.m << "_b"
        << c.batch
        << (c.schedule == PipelineSchedule::GPipe ? "_gpipe" : "_1f1b")
        << (c.bucketing ? "_bucket" : "_nobucket") << "_z" << c.zero_stage
        << (c.fast_mode ? "_fast" : "_exact")
        << (c.collapse ? "_collapse" : "");
}

INSTANTIATE_TEST_SUITE_P(
    TemplateGrid, TemplateGolden,
    ::testing::Values(
        GoldenCase{1, 1, 1, 1, 8},
        GoldenCase{2, 2, 2, 1, 32},
        GoldenCase{2, 2, 2, 1, 32, PipelineSchedule::GPipe, false},
        GoldenCase{1, 2, 4, 2, 64, PipelineSchedule::OneFOneB, true,
                   /*zero=*/1},
        GoldenCase{2, 1, 2, 1, 64, PipelineSchedule::OneFOneB, true, 0,
                   /*fast=*/true, /*collapse=*/true},
        GoldenCase{4, 2, 1, 1, 16, PipelineSchedule::OneFOneB, true, 0,
                   /*fast=*/false},
        GoldenCase{1, 4, 2, 1, 64, PipelineSchedule::OneFOneB, false,
                   /*zero=*/1, /*fast=*/false},
        GoldenCase{2, 2, 2, 2, 64, PipelineSchedule::GPipe}));

TEST(TemplateGolden, ReuseAcrossDpDegreeIsExact)
{
    // d only enters the topology as d>1 (without ZeRO), so a d=4
    // sweep point re-times the d=2 template -- and must still match
    // the from-scratch d=4 result bit for bit.
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    auto cache = std::make_shared<GraphTemplateCache>();

    GoldenCase base{2, 2, 2, 1, 64};
    Simulator prime(cluster, optionsOf(base), cache);
    (void)prime.simulateIteration(model, planOf(base));
    const auto primed = cache->stats();

    GoldenCase wider = base;
    wider.d = 4;
    wider.batch = 128; // keep the per-replica micro-batch count equal
    Simulator warm(cluster, optionsOf(wider), cache);
    const SimulationResult got =
        timeless(warm.simulateIteration(model, planOf(wider)));

    const auto after = cache->stats();
    EXPECT_GT(after.hits, primed.hits);
    EXPECT_EQ(after.entries, primed.entries) << "d must not re-key";

    Simulator scratch(cluster, optionsOf(wider), nullptr);
    EXPECT_EQ(timeless(scratch.simulateIteration(model, planOf(wider))),
              got);
}

TEST(TemplateGolden, ReuseAcrossClustersIsExact)
{
    // The cluster never enters the structural fingerprint: a sweep
    // over interconnect/cluster variants re-times one topology.
    const ModelConfig model = tinyModel();
    const GoldenCase c{2, 2, 2, 1, 32};
    auto cache = std::make_shared<GraphTemplateCache>();

    const ClusterSpec small = makeCluster(8);
    const ClusterSpec big = makeCluster(64);
    Simulator prime(small, optionsOf(c), cache);
    (void)prime.simulateIteration(model, planOf(c));

    Simulator warm(big, optionsOf(c), cache);
    const SimulationResult got =
        timeless(warm.simulateIteration(model, planOf(c)));
    EXPECT_GT(cache->stats().hits, 0u);
    EXPECT_EQ(cache->stats().entries, 2u);

    Simulator scratch(big, optionsOf(c), nullptr);
    EXPECT_EQ(timeless(scratch.simulateIteration(model, planOf(c))),
              got);
}

TEST(TemplateGolden, BatchedReplayMatchesPerPlanPath)
{
    // A DP-degree sweep shares one structural group: the batched path
    // captures (or fetches) one template per simulated micro-batch
    // count and replays every plan over the shared schedule.  Each
    // point must equal its own per-plan simulateIteration bit for bit
    // (modulo the wall clock).
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    const SimOptions options; // fast mode on

    std::vector<ParallelConfig> plans;
    for (const int d : {2, 4, 8}) {
        ParallelConfig plan;
        plan.tensor = 2;
        plan.data = d;
        plan.pipeline = 2;
        plan.micro_batch_size = 1;
        plan.global_batch_size = 16 * d; // fast: n_micro = 16 > cap+1
        plans.push_back(plan);
    }

    Simulator batch(cluster, options);
    const std::vector<SimulationResult> got =
        batch.simulateIterationBatch(model, plans);
    EXPECT_GT(batch.engineCounters()->batched_points.load(), 0u)
        << "the batched engine pass must actually engage";

    ASSERT_EQ(got.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        Simulator individual(cluster, options);
        EXPECT_EQ(
            timeless(individual.simulateIteration(model, plans[i])),
            timeless(got[i]))
            << "plan " << i;
    }
}

TEST(TemplateGolden, TwoChunkBatchMatchesPerPlanColdAndWarm)
{
    // 36 plans span two 32-plan retime chunks, so the warm pass reuses
    // its duration buffers for a ragged second chunk.  Cold (op FIFO)
    // and warm (schedule replay) batches must both equal the per-plan
    // path bit for bit.
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    const SimOptions options; // fast mode on

    std::vector<ParallelConfig> plans;
    for (int rep = 0; rep < 12; ++rep) {
        for (const int d : {2, 4, 8}) {
            ParallelConfig plan;
            plan.tensor = 2;
            plan.data = d;
            plan.pipeline = 2;
            plan.micro_batch_size = 1;
            plan.global_batch_size = 16 * d;
            plans.push_back(plan);
        }
    }

    Simulator individual(cluster, options);
    std::vector<SimulationResult> want;
    for (const ParallelConfig &plan : plans)
        want.push_back(timeless(individual.simulateIteration(model, plan)));

    Simulator batch(cluster, options);
    for (const char *phase : {"cold", "warm"}) {
        const std::vector<SimulationResult> got =
            batch.simulateIterationBatch(model, plans);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(want[i], timeless(got[i]))
                << phase << " plan " << i;
    }
    // Two passes per call (fast mode), every point batched both times.
    EXPECT_EQ(batch.engineCounters()->batched_points.load(),
              2 * 2 * plans.size());
    EXPECT_EQ(batch.engineCounters()->queue_runs.load(), 0u);
    EXPECT_EQ(batch.engineCounters()->replay_runs.load(), 0u);
}

TEST(TemplateGolden, BatchedReplayExactModeAndMixedGroupFallBack)
{
    // Exact mode (fast off) batches plans that agree on the simulated
    // micro-batch count; a structurally different straggler (bucketing
    // off) makes the group non-uniform, and the whole call must
    // transparently degrade to per-plan results.
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    SimOptions options;
    options.fast_mode = false;

    std::vector<ParallelConfig> plans;
    for (const int d : {2, 4}) {
        ParallelConfig plan;
        plan.tensor = 2;
        plan.data = d;
        plan.pipeline = 2;
        plan.micro_batch_size = 1;
        plan.global_batch_size = 4 * d; // exact: n_micro = 4
        plans.push_back(plan);
    }
    ParallelConfig straggler = plans[0];
    straggler.gradient_bucketing = false;
    plans.push_back(straggler);

    Simulator batch(cluster, options);
    const std::vector<SimulationResult> got =
        batch.simulateIterationBatch(model, plans);
    ASSERT_EQ(got.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
        Simulator individual(cluster, options);
        EXPECT_EQ(
            timeless(individual.simulateIteration(model, plans[i])),
            timeless(got[i]))
            << "plan " << i;
    }
}

TEST(TemplateGolden, BatchedReplayTracksEngineCounters)
{
    // The uniform batch goes through batched_points; the mixed one
    // degrades to per-plan replay runs; nothing here touches the
    // queue engine.
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    ParallelConfig a;
    a.tensor = 2;
    a.data = 2;
    a.pipeline = 2;
    a.micro_batch_size = 1;
    a.global_batch_size = 32;
    ParallelConfig b = a;
    b.data = 4;
    b.global_batch_size = 64;

    Simulator sim(cluster, SimOptions{});
    (void)sim.simulateIterationBatch(model, {a, b});
    const auto &counters = *sim.engineCounters();
    // Fast mode: two simulated micro-batch counts x two plans.
    EXPECT_EQ(counters.batched_points.load(), 4u);
    EXPECT_EQ(counters.queue_runs.load(), 0u);

    Simulator scratch(cluster, SimOptions{}, nullptr);
    (void)scratch.simulateIteration(model, a);
    EXPECT_EQ(scratch.engineCounters()->queue_runs.load(), 2u)
        << "the template-less path stays on the queue engine";
    EXPECT_EQ(scratch.engineCounters()->replay_runs.load(), 0u);
}

TEST(TemplateGolden, EmptyAndSingletonBatchesMatchPerPlanPath)
{
    // simulateIteration() is the group routine with one plan, so a
    // batch of one must give the same result; only the counter it
    // ticks follows the entry point.  An empty batch does no work.
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    ParallelConfig plan;
    plan.tensor = 2;
    plan.data = 4;
    plan.pipeline = 2;
    plan.micro_batch_size = 1;
    plan.global_batch_size = 64;

    Simulator batch(cluster, SimOptions{});
    EXPECT_TRUE(batch.simulateIterationBatch(model, {}).empty());
    EXPECT_EQ(batch.engineCounters()->batched_points.load(), 0u);
    EXPECT_EQ(batch.templateCache()->stats().misses, 0u);

    Simulator single(cluster, SimOptions{});
    for (const char *phase : {"cold", "warm"}) {
        const std::vector<SimulationResult> got =
            batch.simulateIterationBatch(model, {plan});
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(timeless(single.simulateIteration(model, plan)),
                  timeless(got[0]))
            << phase;
    }
    // Fast mode: two simulated micro-batch counts per call.
    EXPECT_EQ(batch.engineCounters()->batched_points.load(), 4u);
    EXPECT_EQ(batch.engineCounters()->queue_runs.load(), 0u);
    EXPECT_EQ(batch.engineCounters()->replay_runs.load(), 0u);
    EXPECT_EQ(single.engineCounters()->batched_points.load(), 0u);
    EXPECT_EQ(single.engineCounters()->queue_runs.load(), 2u); // cold
    EXPECT_EQ(single.engineCounters()->replay_runs.load(), 2u); // warm
}

TEST(TemplateFingerprint, StructuralFieldsAllChangeTheDigest)
{
    const ModelConfig model = tinyModel();
    ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});

    const uint64_t base = structuralFingerprint(
        model, plan, 8, false, AttentionImpl::Megatron);

    std::vector<uint64_t> variants;
    {
        ModelConfig m = model;
        m.num_layers = 4;
        variants.push_back(structuralFingerprint(
            m, plan, 8, false, AttentionImpl::Megatron));
    }
    {
        ModelConfig m = model;
        m.hidden_size = 2048;
        variants.push_back(structuralFingerprint(
            m, plan, 8, false, AttentionImpl::Megatron));
    }
    for (auto mutate : {+[](ParallelConfig &p) { p.tensor = 4; },
                        +[](ParallelConfig &p) { p.pipeline = 4; },
                        +[](ParallelConfig &p) { p.micro_batch_size = 2; },
                        +[](ParallelConfig &p) {
                            p.schedule = PipelineSchedule::GPipe;
                        },
                        +[](ParallelConfig &p) {
                            p.gradient_bucketing = false;
                        },
                        +[](ParallelConfig &p) { p.bucket_bytes = 1e6; },
                        +[](ParallelConfig &p) {
                            p.activation_recompute = false;
                        },
                        +[](ParallelConfig &p) { p.data = 1; },
                        +[](ParallelConfig &p) { p.zero_stage = 1; }}) {
        ParallelConfig p = plan;
        mutate(p);
        variants.push_back(structuralFingerprint(
            model, p, 8, false, AttentionImpl::Megatron));
    }
    variants.push_back(structuralFingerprint(
        model, plan, 9, false, AttentionImpl::Megatron));
    variants.push_back(structuralFingerprint(
        model, plan, 8, true, AttentionImpl::Megatron));
    variants.push_back(structuralFingerprint(
        model, plan, 8, false, AttentionImpl::FlashAttention));

    for (size_t i = 0; i < variants.size(); ++i) {
        EXPECT_NE(variants[i], base) << "variant " << i;
        for (size_t j = i + 1; j < variants.size(); ++j)
            EXPECT_NE(variants[i], variants[j])
                << "variants " << i << " and " << j;
    }
}

TEST(TemplateFingerprint, DurationOnlyFieldsShare)
{
    const ModelConfig model = tinyModel();
    ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    const uint64_t base = structuralFingerprint(
        model, plan, 8, false, AttentionImpl::Megatron);

    // The model name never enters the build.
    ModelConfig renamed = model;
    renamed.name = "same-shape-other-name";
    EXPECT_EQ(base, structuralFingerprint(renamed, plan, 8, false,
                                          AttentionImpl::Megatron));

    // Without ZeRO, the DP degree only matters as d>1.
    ParallelConfig wider = plan;
    wider.data = 8;
    wider.global_batch_size = 128;
    EXPECT_EQ(base, structuralFingerprint(model, wider, 8, false,
                                          AttentionImpl::Megatron));

    // With ZeRO the weight-update shard depends on d: no sharing.
    ParallelConfig zero_a = plan, zero_b = wider;
    zero_a.zero_stage = zero_b.zero_stage = 1;
    EXPECT_NE(structuralFingerprint(model, zero_a, 8, false,
                                    AttentionImpl::Megatron),
              structuralFingerprint(model, zero_b, 8, false,
                                    AttentionImpl::Megatron));

    // Precision is duration-only (the profiler re-prices kernels).
    ParallelConfig bf16 = plan;
    bf16.precision = Precision::BF16;
    EXPECT_EQ(base, structuralFingerprint(model, bf16, 8, false,
                                          AttentionImpl::Megatron));

    // bucket_bytes is inert while bucketing is disabled.
    ParallelConfig unbucketed_a = plan, unbucketed_b = plan;
    unbucketed_a.gradient_bucketing = unbucketed_b.gradient_bucketing =
        false;
    unbucketed_b.bucket_bytes = 1e6;
    EXPECT_EQ(structuralFingerprint(model, unbucketed_a, 8, false,
                                    AttentionImpl::Megatron),
              structuralFingerprint(model, unbucketed_b, 8, false,
                                    AttentionImpl::Megatron));

    // Without DP there are no gradient collectives: every bucketing
    // field is inert.
    ParallelConfig solo_a = plan, solo_b = plan;
    solo_a.data = solo_b.data = 1;
    solo_a.global_batch_size = solo_b.global_batch_size = 16;
    solo_b.gradient_bucketing = false;
    solo_b.bucket_bytes = 1e6;
    EXPECT_EQ(structuralFingerprint(model, solo_a, 8, false,
                                    AttentionImpl::Megatron),
              structuralFingerprint(model, solo_b, 8, false,
                                    AttentionImpl::Megatron));
}

TEST(TemplateFingerprint, NoCollisionsAcrossSweepGrid)
{
    const ModelConfig model = tinyModel();
    std::vector<uint64_t> fps;
    for (int t : {1, 2}) {
        for (int p : {1, 2, 4}) {
            for (int m : {1, 2}) {
                for (int n_micro : {4, 8, 16}) {
                    for (bool collapse : {false, true}) {
                        ParallelConfig plan;
                        plan.tensor = t;
                        plan.pipeline = p;
                        plan.micro_batch_size = m;
                        fps.push_back(structuralFingerprint(
                            model, plan, n_micro, collapse,
                            AttentionImpl::Megatron));
                    }
                }
            }
        }
    }
    for (size_t i = 0; i < fps.size(); ++i)
        for (size_t j = i + 1; j < fps.size(); ++j)
            EXPECT_NE(fps[i], fps[j]) << "grid points " << i << ", " << j;
}

/** Captures a template of the tiny model under `attention`. */
std::shared_ptr<const GraphTemplate>
captureTiny(AttentionImpl attention, TaskGraph *expanded,
            const ClusterSpec &cluster, const ParallelConfig &plan,
            OperatorToTaskTable &table)
{
    const ModelConfig model = tinyModel();
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    BuildOptions build_options;
    build_options.n_micro_override = 4;
    const OpGraph ops = builder.build(build_options);
    (void)attention;
    return GraphTemplate::capture(ops, table, {}, expanded);
}

TEST(TemplateRetime, MatchesExpandExactly)
{
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    CommModel comm(cluster);

    TaskGraph expanded;
    const auto tmpl = captureTiny(AttentionImpl::Megatron, &expanded,
                                  cluster, plan, table);
    std::vector<double> retimed;
    ASSERT_TRUE(tmpl->retimeDurations(table, plan, cluster, comm, &retimed));

    ASSERT_EQ(expanded.numTasks(), retimed.size());
    EXPECT_EQ(0, std::memcmp(expanded.durations().data(), retimed.data(),
                             expanded.numTasks() * sizeof(double)));
}

TEST(TemplateRetime, RejectsMismatchedKernelDecomposition)
{
    // A table whose profiler decomposes operators differently (here:
    // FlashAttention's fused kernels) must be rejected, not mis-timed.
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    SyntheticProfiler megatron(cluster.node.gpu);
    OperatorToTaskTable megatron_table(megatron);
    CommModel comm(cluster);

    TaskGraph expanded;
    const auto tmpl = captureTiny(AttentionImpl::Megatron, &expanded,
                                  cluster, plan, megatron_table);

    SyntheticProfiler flash(cluster.node.gpu, Precision::FP16,
                            AttentionImpl::FlashAttention);
    OperatorToTaskTable flash_table(flash);
    std::vector<double> slots = {1.0};
    EXPECT_FALSE(
        tmpl->retimeSlots(flash_table, plan, cluster, comm, &slots));
    EXPECT_EQ(slots, std::vector<double>{1.0}) << "left untouched";
}

TEST(TemplateRetime, CaptureRejectsPerturbedExpansions)
{
    class Doubler : public Perturber
    {
      public:
        double
        perturbCompute(double d, const OpNode &) const override
        {
            return 2.0 * d;
        }
        double
        perturbComm(double l, const OpNode &) const override
        {
            return l;
        }
    };
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    const ModelConfig model = tinyModel();
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    BuildOptions build_options;
    build_options.n_micro_override = 4;
    const OpGraph ops = builder.build(build_options);
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);

    Doubler perturber;
    ExpandOptions options;
    options.perturber = &perturber;
    TaskGraph expanded;
    EXPECT_THROW(GraphTemplate::capture(ops, table, options, &expanded),
                 std::logic_error);
}

TEST(TemplateCache, EvictsLeastRecentlyUsed)
{
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    TaskGraph expanded;
    const auto tmpl = captureTiny(AttentionImpl::Megatron, &expanded,
                                  cluster, plan, table);

    GraphTemplateCache::Options options;
    options.max_entries = 2;
    GraphTemplateCache cache(options);
    cache.put(1, tmpl);
    cache.put(2, tmpl);
    EXPECT_NE(cache.get(1), nullptr); // 1 is now most recently used
    cache.put(3, tmpl);               // evicts 2, the LRU entry

    EXPECT_EQ(cache.get(2), nullptr);
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_NE(cache.get(3), nullptr);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.insertions, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.updates, 0u);

    // Re-putting an existing key refreshes in place: an update, not
    // an insertion, and no entry-count growth.
    cache.put(3, tmpl);
    EXPECT_EQ(cache.stats().updates, 1u);
    EXPECT_EQ(cache.stats().insertions, 3u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(TemplateCache, ByteBudgetEvictsButKeepsNewest)
{
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    TaskGraph expanded;
    const auto tmpl = captureTiny(AttentionImpl::Megatron, &expanded,
                                  cluster, plan, table);
    ASSERT_GT(tmpl->approxBytes(), 0u);

    GraphTemplateCache::Options options;
    options.max_bytes = tmpl->approxBytes() + 1; // room for exactly one
    GraphTemplateCache cache(options);
    cache.put(1, tmpl);
    cache.put(2, tmpl);
    EXPECT_EQ(cache.get(1), nullptr);
    EXPECT_NE(cache.get(2), nullptr);
    EXPECT_EQ(cache.stats().entries, 1u);

    // A single entry larger than the whole budget still stays.
    options.max_bytes = 1;
    GraphTemplateCache tight(options);
    tight.put(7, tmpl);
    EXPECT_NE(tight.get(7), nullptr);
}

TEST(TemplateCache, ApproxBytesCoverOpArraysAndDerivedSchedule)
{
    // The byte budget is fixed at capture, before the run schedule
    // exists, and must not under-count it once it does.
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    TaskGraph expanded;
    const auto tmpl = captureTiny(AttentionImpl::Megatron, &expanded,
                                  cluster, plan, table);
    const size_t before = tmpl->approxBytes();
    const RunSchedule *runs = tmpl->runs();
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(tmpl->approxBytes(), before) << "accounting must not shift";
    EXPECT_GE(tmpl->approxBytes(),
              runs->approxBytes() + tmpl->ops().approxBytes());
    EXPECT_EQ(runs->approxBytes(),
              RunSchedule::bytesFor(tmpl->ops(), runs->numRuns()));
}

TEST(TemplateCache, RunScheduleOverItsBudgetIsNotKept)
{
    // Two independent multi-kernel operators on one lane interleave
    // in the FIFO (a0 b0 a1 b1 ...), so no chain edge merges: more
    // runs than the one-per-operator budget approxBytes() counted.
    // The template must keep no run schedule (the op FIFO serves its
    // warm path) rather than hold more than it budgeted.
    OpGraph ops;
    const OpDesc desc = OpDesc::forModel(OpKind::MhaFwd, tinyModel(), 1, 1);
    ops.addCompute(0, 0, desc);
    ops.addCompute(0, 1, desc);
    ops.finalize();
    const ClusterSpec cluster = makeCluster(64);
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    const auto tmpl = GraphTemplate::capture(ops, table, {}, nullptr);
    ASSERT_GT(tmpl->numTasks(), 2 * tmpl->numOperators());

    const size_t before = tmpl->approxBytes();
    EXPECT_EQ(tmpl->runs(), nullptr);
    EXPECT_EQ(tmpl->approxBytes(), before);
    const auto runs = RunSchedule::build(tmpl->ops());
    EXPECT_EQ(runs->numRuns(), tmpl->numTasks());
}

TEST(TemplateCache, ClearDropsEntriesKeepsCounters)
{
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    TaskGraph expanded;
    const auto tmpl = captureTiny(AttentionImpl::Megatron, &expanded,
                                  cluster, plan, table);

    GraphTemplateCache cache;
    cache.put(1, tmpl);
    EXPECT_NE(cache.get(1), nullptr);
    cache.clear();
    EXPECT_EQ(cache.get(1), nullptr);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(TemplateCache, BypassedForAblationsAndPerturbedRuns)
{
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});

    SimOptions no_memo;
    no_memo.memoize_profiles = false;
    Simulator ablation(cluster, no_memo);
    (void)ablation.simulateIteration(model, plan);
    auto stats = ablation.templateCache()->stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);

    class Identity : public Perturber
    {
      public:
        double
        perturbCompute(double d, const OpNode &) const override
        {
            return d;
        }
        double
        perturbComm(double l, const OpNode &) const override
        {
            return l;
        }
    };
    Identity identity;
    SimOptions perturbed;
    perturbed.perturber = &identity;
    Simulator testbed(cluster, perturbed);
    (void)testbed.simulateIteration(model, plan);
    stats = testbed.templateCache()->stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);
}

TEST(TemplateConcurrency, FirstReuseDerivesOneRunScheduleAcrossThreads)
{
    // Eight threads reach a fresh template's first reuse together:
    // the run schedule is derived once, every thread gets that one,
    // and every replay over it times like the queue engine.
    const ClusterSpec cluster = makeCluster(64);
    const ParallelConfig plan = planOf(GoldenCase{2, 2, 2, 1, 32});
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    TaskGraph expanded;
    const auto tmpl = captureTiny(AttentionImpl::Megatron, &expanded,
                                  cluster, plan, table);
    CommModel comm(cluster);
    std::vector<double> slots;
    ASSERT_TRUE(tmpl->retimeSlots(table, plan, cluster, comm, &slots));
    const EngineResult want = runSimulation(expanded);

    constexpr int kThreads = 8;
    std::atomic<int> arriving{kThreads};
    std::vector<const RunSchedule *> seen(kThreads, nullptr);
    std::vector<EngineResult> got(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int thread_id = 0; thread_id < kThreads; ++thread_id) {
            threads.emplace_back([&, thread_id] {
                arriving.fetch_sub(1);
                while (arriving.load() > 0)
                    std::this_thread::yield();
                seen[thread_id] = tmpl->runs();
                if (seen[thread_id] != nullptr) {
                    const double *table_ptr = slots.data();
                    replayRuns(*seen[thread_id], &table_ptr, 1,
                               &got[thread_id]);
                }
            });
        }
        for (auto &t : threads)
            t.join();
    }
    ASSERT_NE(seen[0], nullptr);
    for (int thread_id = 0; thread_id < kThreads; ++thread_id) {
        SCOPED_TRACE(::testing::Message() << "thread " << thread_id);
        EXPECT_EQ(seen[thread_id], seen[0]);
        const EngineResult &r = got[thread_id];
        EXPECT_EQ(0, std::memcmp(&want.makespan, &r.makespan,
                                 sizeof(double)));
        EXPECT_EQ(want.busy_compute, r.busy_compute);
        EXPECT_EQ(want.busy_comm, r.busy_comm);
        EXPECT_EQ(want.time_by_tag, r.time_by_tag);
        EXPECT_EQ(want.executed, r.executed);
    }
}

TEST(TemplateConcurrency, SharedCacheServesParallelSimulations)
{
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    const SimOptions options;

    // Plans that alternately share and re-key the cached topologies.
    std::vector<ParallelConfig> plans;
    for (int d : {1, 2, 4})
        for (int p : {2, 4})
            plans.push_back(planOf(GoldenCase{2, d, p, 1, 16 * d}));

    std::vector<SimulationResult> want(plans.size());
    {
        Simulator scratch(cluster, options, nullptr);
        for (size_t i = 0; i < plans.size(); ++i)
            want[i] = timeless(scratch.simulateIteration(model, plans[i]));
    }

    auto cache = std::make_shared<GraphTemplateCache>();
    constexpr int kThreads = 8;
    std::vector<int> mismatches(kThreads, 0);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int thread_id = 0; thread_id < kThreads; ++thread_id) {
            threads.emplace_back([&, thread_id] {
                Simulator sim(cluster, options, cache);
                for (int round = 0; round < 3; ++round) {
                    for (size_t i = 0; i < plans.size(); ++i) {
                        const SimulationResult got = timeless(
                            sim.simulateIteration(model, plans[i]));
                        if (!(got == want[i]))
                            ++mismatches[thread_id];
                    }
                }
            });
        }
        for (auto &t : threads)
            t.join();
    }
    for (int thread_id = 0; thread_id < kThreads; ++thread_id)
        EXPECT_EQ(mismatches[thread_id], 0) << "thread " << thread_id;
    EXPECT_GT(cache->stats().hits, 0u);
}

} // namespace
} // namespace vtrain
