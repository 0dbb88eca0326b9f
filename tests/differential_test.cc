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
 * from the fully expanded kernel-level topology.  Its run schedule
 * must partition that schedule into exactly the runs the four merge
 * conditions define, and replay bit-identically to both the per-task
 * replay and the queue engine at every lockstep width.  Where a test
 * retimes a template, its oracle is the queue engine over the
 * expansion of a fresh build for the retimed plan, so it shares no
 * code with the template under test.  Node ids are
 * a layout choice: a seeded relabelling that keeps each node's child
 * order must simulate bit-identically on every path.  Fast mode's
 * forked pair walk (runOpPair) over the cap and cap + 1 graphs must
 * match two independent op-FIFO walks and the queue engine at every
 * width, relabelled too, and degrade to two walks when the roots
 * differ.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/template.h"
#include "sim/engine.h"
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

/** Every EngineResult field, compared by bytes. */
void
expectSameEngine(const EngineResult &want, const EngineResult &got,
                 const std::string &where)
{
    EXPECT_EQ(0, std::memcmp(&want.makespan, &got.makespan, sizeof(double)))
        << where << ": makespan";
    EXPECT_EQ(want.executed, got.executed) << where;
    ASSERT_EQ(want.busy_compute.size(), got.busy_compute.size()) << where;
    ASSERT_EQ(want.busy_comm.size(), got.busy_comm.size()) << where;
    EXPECT_EQ(0, std::memcmp(want.busy_compute.data(),
                             got.busy_compute.data(),
                             want.busy_compute.size() * sizeof(double)))
        << where << ": busy_compute";
    EXPECT_EQ(0, std::memcmp(want.busy_comm.data(), got.busy_comm.data(),
                             want.busy_comm.size() * sizeof(double)))
        << where << ": busy_comm";
    EXPECT_EQ(0, std::memcmp(want.time_by_tag.data(), got.time_by_tag.data(),
                             sizeof(want.time_by_tag)))
        << where << ": time_by_tag";
}

/** A fresh build of `c.model` under `plan` at `n_micro`
 *  micro-batches. */
OpGraph
buildAt(const Case &c, const ParallelConfig &plan, int n_micro)
{
    CommModel comm(c.cluster);
    BuildOptions options;
    options.n_micro_override = n_micro;
    return GraphBuilder(c.model, plan, c.cluster, comm).build(options);
}

/**
 * The kernel-level oracle: the queue engine over TaskGraph::expand of
 * `ops`.  Fed a fresh build for the plan a template was retimed to,
 * it shares nothing with the template under test.
 */
EngineResult
expandedRun(const Case &c, const OpGraph &ops, OperatorToTaskTable &table)
{
    ExpandOptions expand;
    expand.collapse_operators = c.options.collapse_operators;
    return runSimulation(TaskGraph::expand(ops, table, expand));
}

/** A drawn case's operator graph at its own micro-batch count,
 *  captured with `table`. */
std::shared_ptr<const GraphTemplate>
captureCase(const Case &c, OperatorToTaskTable &table)
{
    ExpandOptions expand;
    expand.collapse_operators = c.options.collapse_operators;
    return GraphTemplate::capture(
        buildAt(c, c.plan, c.plan.numMicroBatches()), table, expand,
        nullptr);
}

TEST(DifferentialRuns, RunReplayMatchesPerTaskReplayAndOracleAtEveryWidth)
{
    Rng rng(kSeed + 3);
    for (int i = 0; i < 16; ++i) {
        const Case c = drawCase(rng);
        const std::string where = "case " + std::to_string(i) + " " +
                                  describe(c);
        SyntheticProfiler profiler(c.cluster.node.gpu, c.plan.precision,
                                   c.options.attention);
        OperatorToTaskTable table(profiler);
        const auto tmpl = captureCase(c, table);
        const RunSchedule *runs = tmpl->runs();
        ASSERT_NE(runs, nullptr) << where;

        // Per plan: the oracle (queue engine over the expansion of a
        // fresh build for that plan) and the per-task schedule replay.
        CommModel comm(c.cluster);
        const std::vector<ParallelConfig> plans = variants(c, 9);
        std::vector<std::vector<double>> slots(plans.size());
        std::vector<const double *> slot_ptrs;
        std::vector<EngineResult> oracle;
        std::vector<EngineResult> per_task;
        for (size_t j = 0; j < plans.size(); ++j) {
            ASSERT_TRUE(tmpl->retimeSlots(table, plans[j], c.cluster, comm,
                                          &slots[j]))
                << where;
            slot_ptrs.push_back(slots[j].data());
            oracle.push_back(expandedRun(
                c, buildAt(c, plans[j], c.plan.numMicroBatches()), table));
            std::vector<double> durations;
            ASSERT_TRUE(tmpl->retimeDurations(table, plans[j], c.cluster,
                                              comm, &durations))
                << where;
            per_task.push_back(
                replaySimulation(tmpl->schedule(), durations));
        }

        // Cold (the op FIFO) then warm (the run replay), K = 1..9.
        for (size_t k = 1; k <= plans.size(); ++k) {
            for (const char *phase : {"cold", "warm"}) {
                std::vector<EngineResult> got(k);
                if (phase[0] == 'c')
                    runOpBatch(tmpl->ops(), slot_ptrs.data(), k, got.data());
                else
                    replayRuns(*runs, slot_ptrs.data(), k, got.data());
                for (size_t j = 0; j < k; ++j) {
                    const std::string at = where + " K=" +
                                           std::to_string(k) + " point " +
                                           std::to_string(j) + " (" +
                                           phase + ")";
                    expectSameEngine(oracle[j], got[j], at + " vs oracle");
                    expectSameEngine(per_task[j], got[j],
                                     at + " vs per-task replay");
                }
            }
        }
    }
}

/**
 * The runs of a kernel-level schedule, derived per task straight from
 * the four merge conditions: edge p -> i merges when i is p's only
 * child, p is i's only parent, both share a lane, and p is the last
 * task the lane ran before i.  Runs are numbered by head position.
 */
struct ReferenceRuns {
    std::vector<int32_t> run_of; //!< per schedule position
    std::vector<std::vector<int32_t>> members; //!< positions, per run
};

ReferenceRuns
referenceRuns(const ReplaySchedule &schedule)
{
    const size_t n = schedule.numTasks();
    std::vector<int32_t> parents(n, 0);
    std::vector<int32_t> parent(n, -1);
    for (size_t p = 0; p < n; ++p)
        for (int32_t e = schedule.child_offsets[p];
             e < schedule.child_offsets[p + 1]; ++e) {
            ++parents[schedule.child_list[e]];
            parent[schedule.child_list[e]] = static_cast<int32_t>(p);
        }
    std::vector<int32_t> lane_last(
        static_cast<size_t>(schedule.num_devices) * kNumStreams, -1);
    ReferenceRuns runs;
    runs.run_of.assign(n, -1);
    for (size_t i = 0; i < n; ++i) {
        const int32_t p = parent[i];
        const bool merged =
            parents[i] == 1 &&
            schedule.child_offsets[p + 1] - schedule.child_offsets[p] == 1 &&
            schedule.lane[p] == schedule.lane[i] &&
            lane_last[schedule.lane[i]] == p;
        if (merged) {
            runs.run_of[i] = runs.run_of[p];
        } else {
            runs.run_of[i] = static_cast<int32_t>(runs.members.size());
            runs.members.emplace_back();
        }
        runs.members[runs.run_of[i]].push_back(static_cast<int32_t>(i));
        lane_last[schedule.lane[i]] = static_cast<int32_t>(i);
    }
    return runs;
}

TEST(DifferentialRuns, RunsPartitionTheScheduleByTheFourMergeConditions)
{
    Rng rng(kSeed + 4);
    for (int i = 0; i < 32; ++i) {
        const Case c = drawCase(rng);
        const std::string where = "case " + std::to_string(i) + " " +
                                  describe(c);
        SyntheticProfiler profiler(c.cluster.node.gpu, c.plan.precision,
                                   c.options.attention);
        OperatorToTaskTable table(profiler);
        const auto tmpl = captureCase(c, table);
        const ReplaySchedule &schedule = tmpl->schedule();
        const RunSchedule *runs = tmpl->runs();
        ASSERT_NE(runs, nullptr) << where;
        const ReferenceRuns want = referenceRuns(schedule);

        // Every position lies in exactly one reference run, in pop
        // order, and every merged edge meets the four conditions (by
        // construction above); the library's runs must be the same.
        const size_t n = schedule.numTasks();
        std::vector<int32_t> seen(n, 0);
        for (const std::vector<int32_t> &members : want.members)
            for (size_t m = 0; m < members.size(); ++m) {
                ++seen[members[m]];
                if (m > 0) {
                    EXPECT_LT(members[m - 1], members[m]) << where;
                }
            }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                  static_cast<std::ptrdiff_t>(n))
            << where;

        // Each task's slot, by task id (TaskGraph::expand numbering).
        const OpTopology &ops = tmpl->ops();
        std::vector<int32_t> task_slot;
        for (const OpTopology::Op &op : ops.ops)
            for (int k = 0; k < op.kernels; ++k)
                task_slot.push_back(op.slot + k);
        const auto slot_at = [&](int32_t pos) {
            return task_slot[schedule.order[pos]];
        };

        ASSERT_EQ(runs->numRuns(), want.members.size()) << where;
        ASSERT_EQ(runs->numTasks(), n) << where;
        size_t member = 0;
        for (size_t r = 0; r < want.members.size(); ++r) {
            const std::vector<int32_t> &members = want.members[r];
            ASSERT_EQ(runs->lane[r], schedule.lane[members[0]])
                << where << " run " << r;
            ASSERT_EQ(runs->length[r], members.size())
                << where << " run " << r;
            for (const int32_t pos : members)
                ASSERT_EQ(runs->slot[member++], slot_at(pos))
                    << where << " run " << r;
            std::vector<int32_t> want_children;
            const int32_t last = members.back();
            for (int32_t e = schedule.child_offsets[last];
                 e < schedule.child_offsets[last + 1]; ++e)
                want_children.push_back(
                    want.run_of[schedule.child_list[e]]);
            std::vector<int32_t> got_children(
                runs->child_list.begin() + runs->child_offsets[r],
                runs->child_list.begin() + runs->child_offsets[r + 1]);
            std::sort(want_children.begin(), want_children.end());
            std::sort(got_children.begin(), got_children.end());
            EXPECT_EQ(want_children, got_children) << where << " run " << r;
        }

        // The pop-order sums: each tag, then each device's comm
        // streams.
        const int accumulators = kNumTaskTags + schedule.num_devices;
        ASSERT_EQ(runs->sum_offsets.size(),
                  static_cast<size_t>(accumulators) + 1)
            << where;
        for (int a = 0; a < accumulators; ++a) {
            std::vector<uint16_t> want_slots;
            for (size_t pos = 0; pos < n; ++pos) {
                const bool in =
                    a < kNumTaskTags
                        ? schedule.tag[pos] == a
                        : schedule.busy_lane[pos] ==
                              (a - kNumTaskTags) * 2 + 1;
                if (in)
                    want_slots.push_back(static_cast<uint16_t>(
                        slot_at(static_cast<int32_t>(pos))));
            }
            const std::vector<uint16_t> got_slots(
                runs->sum_slot.begin() + runs->sum_offsets[a],
                runs->sum_slot.begin() + runs->sum_offsets[a + 1]);
            EXPECT_EQ(want_slots, got_slots) << where << " sum " << a;
        }
    }
}

/** A seeded shuffle of the ids 0 .. n-1. */
std::vector<OpGraph::NodeId>
shuffledIds(size_t n, Rng &rng)
{
    std::vector<OpGraph::NodeId> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = n; i > 1; --i)
        std::swap(perm[i - 1],
                  perm[rng.uniformInt(0, static_cast<int64_t>(i) - 1)]);
    return perm;
}

/**
 * `g` with node u renumbered perm[u].  Every node keeps its children
 * in CSR order; a relabelling cannot change in-degrees, so the root
 * set is the same too.  Descriptors keep their ids, or are interned
 * in reverse when `reverse_descs` is set, which permutes a captured
 * template's slot table and changes nothing else.
 */
OpGraph
relabelled(const OpGraph &g, const std::vector<OpGraph::NodeId> &perm,
           bool reverse_descs = false)
{
    const size_t n = g.numNodes();
    std::vector<OpGraph::NodeId> node_at(n);
    for (size_t u = 0; u < n; ++u)
        node_at[perm[u]] = static_cast<OpGraph::NodeId>(u);
    const auto n_descs = static_cast<int32_t>(g.descs().size());
    const auto desc_id = [&](int32_t d) {
        return reverse_descs ? n_descs - 1 - d : d;
    };

    OpGraph out;
    out.setNumDevices(g.numDevices());
    for (int32_t d = 0; d < n_descs; ++d)
        out.internDesc(g.descs()[desc_id(d)]);
    for (const OpGraph::NodeId u : node_at) {
        const OpNode &node = g.nodes()[u];
        if (node.type == OpNodeType::Compute)
            out.addCompute(node.device, node.micro_batch,
                           desc_id(node.desc_id));
        else
            out.addComm(node.device, node.micro_batch, node.comm_kind,
                        node.comm_latency, node.comm_workers,
                        node.comm_scope, node.comm_concurrent_groups,
                        node.stream, node.comm_bytes);
    }
    for (size_t u = 0; u < n; ++u) {
        const auto id = static_cast<OpGraph::NodeId>(u);
        for (const OpGraph::NodeId *c = g.childBegin(id),
                                   *end = g.childEnd(id);
             c != end; ++c)
            out.addEdge(perm[u], perm[*c]);
    }
    out.finalize();
    return out;
}

TEST(DifferentialRelabel, PermutedNodeIdsSimulateBitIdentically)
{
    Rng rng(kSeed + 5);
    for (int i = 0; i < 16; ++i) {
        const Case c = drawCase(rng);
        const std::string where = "case " + std::to_string(i) + " " +
                                  describe(c);
        CommModel comm(c.cluster);
        const int n_micro = c.plan.numMicroBatches();
        const OpGraph ops = buildAt(c, c.plan, n_micro);
        const std::vector<OpGraph::NodeId> perm =
            shuffledIds(ops.numNodes(), rng);
        const OpGraph shuffled = relabelled(ops, perm);
        SyntheticProfiler profiler(c.cluster.node.gpu, c.plan.precision,
                                   c.options.attention);
        OperatorToTaskTable table(profiler);
        ExpandOptions expand;
        expand.collapse_operators = c.options.collapse_operators;
        const std::shared_ptr<const GraphTemplate> tmpls[] = {
            GraphTemplate::capture(ops, table, expand, nullptr),
            GraphTemplate::capture(shuffled, table, expand, nullptr)};
        const RunSchedule *runs[2];
        for (int side = 0; side < 2; ++side) {
            runs[side] = tmpls[side]->runs();
            ASSERT_NE(runs[side], nullptr) << where;
        }

        // Per side and plan: a slot table, and the queue engine over
        // the expansion of a fresh build for the plan, relabelled on
        // side 1.
        const std::vector<ParallelConfig> plans = variants(c, 9);
        std::vector<double> slots[2][9];
        const double *slot_ptrs[2][9];
        for (int side = 0; side < 2; ++side) {
            for (size_t j = 0; j < plans.size(); ++j) {
                ASSERT_TRUE(tmpls[side]->retimeSlots(
                    table, plans[j], c.cluster, comm, &slots[side][j]))
                    << where;
                slot_ptrs[side][j] = slots[side][j].data();
            }
        }
        for (size_t j = 0; j < plans.size(); ++j) {
            const OpGraph fresh = buildAt(c, plans[j], n_micro);
            const EngineResult oracle[2] = {
                expandedRun(c, fresh, table),
                expandedRun(c, relabelled(fresh, perm), table)};
            expectSameEngine(oracle[0], oracle[1],
                             where + " point " + std::to_string(j) +
                                 " (queue engine)");
        }

        // The op FIFO and the run replay, K = 1..9.
        for (size_t k = 1; k <= plans.size(); ++k) {
            for (const char *phase : {"cold", "warm"}) {
                std::vector<EngineResult> got[2];
                for (int side = 0; side < 2; ++side) {
                    got[side].resize(k);
                    if (phase[0] == 'c')
                        runOpBatch(tmpls[side]->ops(), slot_ptrs[side], k,
                                   got[side].data());
                    else
                        replayRuns(*runs[side], slot_ptrs[side], k,
                                   got[side].data());
                }
                for (size_t j = 0; j < k; ++j)
                    expectSameEngine(got[0][j], got[1][j],
                                     where + " K=" + std::to_string(k) +
                                         " point " + std::to_string(j) +
                                         " (" + phase + ")");
            }
        }
    }
}

/**
 * `pair_at(plan)` returns the graphs a and b for one plan.  Captures
 * pair_at(c.plan) with `table`, retimes both for every plan, and
 * checks runOpPair over them against two runOpBatch walks and the
 * queue engine over the expansion of pair_at(plan), at K = 1 .. the
 * plan count.  The slot tables must agree, as the simulator requires
 * before it pairs.  `*shared` receives the pops the pair shared,
 * which must not depend on K.
 */
template <typename PairAt>
void
expectPairMatches(const Case &c, PairAt &&pair_at,
                  const std::vector<ParallelConfig> &plans,
                  OperatorToTaskTable &table, const std::string &where,
                  size_t *shared)
{
    CommModel comm(c.cluster);
    ExpandOptions expand;
    expand.collapse_operators = c.options.collapse_operators;
    const auto [a, b] = pair_at(c.plan);
    const std::shared_ptr<const GraphTemplate> tmpls[] = {
        GraphTemplate::capture(a, table, expand, nullptr),
        GraphTemplate::capture(b, table, expand, nullptr)};
    const size_t n = plans.size();
    std::vector<std::vector<double>> slots[2];
    std::vector<EngineResult> oracle[2];
    for (size_t j = 0; j < n; ++j) {
        const auto [fresh_a, fresh_b] = pair_at(plans[j]);
        oracle[0].push_back(expandedRun(c, fresh_a, table));
        oracle[1].push_back(expandedRun(c, fresh_b, table));
    }
    for (int side = 0; side < 2; ++side) {
        slots[side].resize(n);
        for (size_t j = 0; j < n; ++j)
            ASSERT_TRUE(tmpls[side]->retimeSlots(table, plans[j], c.cluster,
                                                 comm, &slots[side][j]))
                << where;
    }
    ASSERT_EQ(slots[0], slots[1]) << where << ": slot tables differ";
    std::vector<const double *> slot_ptrs;
    for (const std::vector<double> &table_j : slots[0])
        slot_ptrs.push_back(table_j.data());

    for (size_t k = 1; k <= n; ++k) {
        std::vector<EngineResult> pair[2] = {std::vector<EngineResult>(k),
                                             std::vector<EngineResult>(k)};
        const size_t popped =
            runOpPair(tmpls[0]->ops(), tmpls[1]->ops(), slot_ptrs.data(), k,
                      pair[0].data(), pair[1].data());
        if (k == 1)
            *shared = popped;
        EXPECT_EQ(popped, *shared) << where << " K=" << k;
        EXPECT_LE(popped, std::min(tmpls[0]->numTasks(),
                                   tmpls[1]->numTasks()))
            << where;
        for (int side = 0; side < 2; ++side) {
            std::vector<EngineResult> walk(k);
            runOpBatch(tmpls[side]->ops(), slot_ptrs.data(), k, walk.data());
            for (size_t j = 0; j < k; ++j) {
                const std::string at = where + " K=" + std::to_string(k) +
                                       " graph " + "ab"[side] + " point " +
                                       std::to_string(j);
                expectSameEngine(walk[j], pair[side][j], at + " vs walk");
                expectSameEngine(oracle[side][j], pair[side][j],
                                 at + " vs oracle");
            }
        }
    }
}

TEST(DifferentialPair, ForkedPairMatchesTwoWalksAndOracleAtEveryWidth)
{
    Rng rng(kSeed + 6);
    for (int i = 0; i < 16; ++i) {
        const Case c = drawCase(rng);
        const std::string where = "case " + std::to_string(i) + " " +
                                  describe(c);
        const int cap = std::max(2 * c.plan.pipeline + 2, 4);
        const auto pair_at = [&](const ParallelConfig &plan) {
            return std::pair{buildAt(c, plan, cap), buildAt(c, plan, cap + 1)};
        };
        SyntheticProfiler profiler(c.cluster.node.gpu, c.plan.precision,
                                   c.options.attention);
        OperatorToTaskTable table(profiler);
        const std::vector<ParallelConfig> plans = variants(c, 9);
        size_t shared = 0;
        expectPairMatches(c, pair_at, plans, table, where, &shared);
        EXPECT_GT(shared, 0u) << where;

        // The same pair under one seeded shuffle of the ids that are
        // compute operators in both graphs.  Comm ids stay put, so
        // each comm payload keeps its slot and the slot tables stay
        // equal.  Both walks pop the same operators under new ids, so
        // neither the fork nor any result may move.
        const auto [a, b] = pair_at(c.plan);
        std::vector<OpGraph::NodeId> movable;
        for (size_t u = 0; u < a.numNodes(); ++u)
            if (a.nodes()[u].type == OpNodeType::Compute &&
                b.nodes()[u].type == OpNodeType::Compute)
                movable.push_back(static_cast<OpGraph::NodeId>(u));
        const std::vector<OpGraph::NodeId> shuffle =
            shuffledIds(movable.size(), rng);
        std::vector<OpGraph::NodeId> perm_b(b.numNodes());
        std::iota(perm_b.begin(), perm_b.end(), 0);
        for (size_t m = 0; m < movable.size(); ++m)
            perm_b[movable[m]] = movable[shuffle[m]];
        const std::vector<OpGraph::NodeId> perm_a(
            perm_b.begin(), perm_b.begin() + a.numNodes());
        size_t shared_relabelled = 0;
        const auto relabelled_at = [&](const ParallelConfig &plan) {
            const auto [plan_a, plan_b] = pair_at(plan);
            return std::pair{relabelled(plan_a, perm_a),
                             relabelled(plan_b, perm_b)};
        };
        expectPairMatches(c, relabelled_at, plans, table,
                          where + " (relabelled)", &shared_relabelled);
        EXPECT_EQ(shared_relabelled, shared) << where;
    }
}

/** One fixed fast-mode case: p = 2, 16 micro-batches. */
Case
fastCase()
{
    Case c;
    c.model = makeModel(512, 4, 8, 256, 8192);
    c.plan.tensor = 2;
    c.plan.data = 2;
    c.plan.pipeline = 2;
    c.plan.micro_batch_size = 1;
    c.plan.global_batch_size = 32;
    c.cluster = makeCluster(8);
    return c;
}

TEST(DifferentialPair, ExtraRootInBSharesNothing)
{
    const Case c = fastCase();
    // b is a plus one root: a compute node feeding a's last node.
    const auto pair_at = [&](const ParallelConfig &plan) {
        OpGraph a = buildAt(c, plan, 6);
        OpGraph b = a;
        const OpGraph::NodeId root = b.addCompute(0, 0, 0);
        b.addEdge(root, static_cast<OpGraph::NodeId>(a.numNodes() - 1));
        b.finalize();
        return std::pair{std::move(a), std::move(b)};
    };
    SyntheticProfiler profiler(c.cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    size_t shared = 1;
    expectPairMatches(c, pair_at, variants(c, 3), table, "extra root",
                      &shared);
    EXPECT_EQ(shared, 0u);
}

TEST(DifferentialPair, IdenticalGraphsShareTheWholeWalk)
{
    const Case c = fastCase();
    const auto pair_at = [&](const ParallelConfig &plan) {
        return std::pair{buildAt(c, plan, 6), buildAt(c, plan, 6)};
    };
    const OpGraph a = buildAt(c, c.plan, 6);
    SyntheticProfiler profiler(c.cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    size_t shared = 0;
    expectPairMatches(c, pair_at, variants(c, 9), table, "a == b", &shared);
    EXPECT_EQ(shared, GraphTemplate::capture(a, table, ExpandOptions{},
                                             nullptr)
                          ->numTasks());
}

TEST(DifferentialPair, ForkRebasesPartlyReleasedOperators)
{
    // r -> {x, y} -> j, one kernel per operator.  b's y runs another
    // descriptor, so the fork F falls after r and x: j has one of its
    // two parents released, and b's walk must start from that count
    // (the capped pipeline graphs above rarely fork with such an
    // operator; MT-NLG at p = 35 does).
    Case c = fastCase();
    c.options.collapse_operators = true;
    const OpDesc mha = OpDesc::forModel(OpKind::MhaFwd, c.model, 1, 2);
    const OpDesc ffn = OpDesc::forModel(OpKind::FfnFwd, c.model, 1, 2);
    const auto diamond = [&](const OpDesc &y_desc) {
        OpGraph g;
        const OpGraph::NodeId r = g.addCompute(0, 0, mha);
        const OpGraph::NodeId x = g.addCompute(0, 0, mha);
        const OpGraph::NodeId y = g.addCompute(1, 0, y_desc);
        const OpGraph::NodeId j = g.addCompute(0, 0, ffn);
        g.setNumDevices(2);
        g.addEdge(r, x);
        g.addEdge(r, y);
        g.addEdge(x, j);
        g.addEdge(y, j);
        g.finalize();
        return g;
    };
    SyntheticProfiler profiler(c.cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    size_t shared = 0;
    // Compute operators only: their durations come from the table
    // alone, so the hand-built pair is every plan's.
    const auto pair_at = [&](const ParallelConfig &) {
        return std::pair{diamond(mha), diamond(ffn)};
    };
    expectPairMatches(c, pair_at, variants(c, 3), table, "diamond",
                      &shared);
    EXPECT_EQ(shared, 2u);
}

TEST(DifferentialPair, SimulatorWalksColdPairsOnceAndFallsBackOnUnequalSlots)
{
    const Case c = fastCase();
    Simulator oracle(c.cluster, c.options, nullptr);
    const SimulationResult want = oracle.simulateIteration(c.model, c.plan);
    ASSERT_TRUE(want.extrapolated);
    const int cap = want.simulated_micro_batches;

    // Both graphs cold: one forked pair walk, counted as two runs.
    {
        Simulator sim(c.cluster, c.options,
                      std::make_shared<GraphTemplateCache>());
        expectBitIdentical(want, sim.simulateIteration(c.model, c.plan),
                           "cold pair");
        const EngineStats stats = snapshot(*sim.engineCounters());
        EXPECT_EQ(stats.queue_runs, 2u);
        EXPECT_EQ(stats.replay_runs, 0u);
    }

    // A cached cap + 1 template with its descriptors interned in
    // reverse: it retimes, but its slot table is a permutation of the
    // cap graph's, so the pair cannot share a walk.  The cap graph
    // walks cold and the cap + 1 graph replays.
    SyntheticProfiler profiler(c.cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    const OpGraph b = buildAt(c, c.plan, cap + 1);
    std::vector<OpGraph::NodeId> identity(b.numNodes());
    std::iota(identity.begin(), identity.end(), 0);
    auto cache = std::make_shared<GraphTemplateCache>();
    cache->put(structuralFingerprint(c.model, c.plan, cap + 1,
                                     c.options.collapse_operators,
                                     c.options.attention),
               GraphTemplate::capture(relabelled(b, identity, true), table,
                                      ExpandOptions{}, nullptr));
    Simulator sim(c.cluster, c.options, cache);
    expectBitIdentical(want, sim.simulateIteration(c.model, c.plan),
                       "unequal slot tables");
    const EngineStats stats = snapshot(*sim.engineCounters());
    EXPECT_EQ(stats.queue_runs, 1u);
    EXPECT_EQ(stats.replay_runs, 1u);
}

} // namespace
} // namespace vtrain
