/**
 * @file
 * Unit tests for the Algorithm 1 engine on hand-built task graphs:
 * serialization on a stream, cross-device parallelism,
 * compute/communication overlap, dependency handling and deadlock
 * detection — plus the schedule-replay mode (single and batched),
 * pinned bit-identical to the queue engine on every graph shape here
 * and on a real expanded model graph, including under concurrent use
 * of one shared schedule — and the operator-level FIFO, pinned to the
 * queue engine at every lockstep width.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/schedule.h"
#include "graph/task_graph.h"
#include "graph/template.h"
#include "model/zoo.h"
#include "profiling/synthetic_profiler.h"
#include "sim/engine.h"

namespace vtrain {
namespace {

/** Exact (bit-level) equality of two engine results. */
void
expectSameResult(const EngineResult &want, const EngineResult &got)
{
    EXPECT_EQ(want.makespan, got.makespan);
    EXPECT_EQ(want.executed, got.executed);
    ASSERT_EQ(want.busy_compute.size(), got.busy_compute.size());
    for (size_t d = 0; d < want.busy_compute.size(); ++d) {
        EXPECT_EQ(want.busy_compute[d], got.busy_compute[d]) << d;
        EXPECT_EQ(want.busy_comm[d], got.busy_comm[d]) << d;
    }
    for (int t = 0; t < kNumTaskTags; ++t)
        EXPECT_EQ(want.time_by_tag[t], got.time_by_tag[t]) << t;
}

/**
 * Runs `graph` through the queue engine and the schedule replay (with
 * traces) and checks them bit-identical in every output.
 */
void
expectReplayMatchesQueue(const TaskGraph &graph)
{
    std::vector<TaskSpan> queue_trace;
    const EngineResult queue = runSimulation(graph, &queue_trace);

    const auto schedule = ReplaySchedule::build(*graph.topology());
    std::vector<TaskSpan> replay_trace;
    const EngineResult replay =
        replaySimulation(*schedule, graph.durations(), &replay_trace);

    expectSameResult(queue, replay);
    ASSERT_EQ(queue_trace.size(), replay_trace.size());
    for (size_t i = 0; i < queue_trace.size(); ++i) {
        EXPECT_EQ(queue_trace[i].start, replay_trace[i].start) << i;
        EXPECT_EQ(queue_trace[i].end, replay_trace[i].end) << i;
    }
}

TEST(Engine, SingleTask)
{
    TaskGraph::Builder b;
    b.addTask(5.0, 0);
    const auto r = runSimulation(std::move(b).build(1));
    EXPECT_DOUBLE_EQ(r.makespan, 5.0);
    EXPECT_EQ(r.executed, 1u);
    EXPECT_DOUBLE_EQ(r.busy_compute[0], 5.0);
}

TEST(Engine, ChainSums)
{
    TaskGraph::Builder b;
    const auto t0 = b.addTask(1.0, 0);
    const auto t1 = b.addTask(2.0, 0);
    const auto t2 = b.addTask(3.0, 0);
    b.addEdge(t0, t1);
    b.addEdge(t1, t2);
    EXPECT_DOUBLE_EQ(runSimulation(std::move(b).build(1)).makespan, 6.0);
}

TEST(Engine, SameStreamSerializesWithoutEdges)
{
    // Two independent tasks on the same device/stream cannot overlap:
    // the timeline (Algorithm 1 line 12) serializes them.
    TaskGraph::Builder b;
    b.addTask(4.0, 0);
    b.addTask(6.0, 0);
    EXPECT_DOUBLE_EQ(runSimulation(std::move(b).build(1)).makespan,
                     10.0);
}

TEST(Engine, DifferentDevicesOverlap)
{
    TaskGraph::Builder b;
    b.addTask(4.0, 0);
    b.addTask(6.0, 1);
    const auto r = runSimulation(std::move(b).build(2));
    EXPECT_DOUBLE_EQ(r.makespan, 6.0);
    EXPECT_DOUBLE_EQ(r.busy_compute[0], 4.0);
    EXPECT_DOUBLE_EQ(r.busy_compute[1], 6.0);
}

TEST(Engine, StreamsOverlapWithinDevice)
{
    // Compute and communication streams of one GPU proceed
    // concurrently (the Fig. 5 bucketing overlap).
    TaskGraph::Builder b;
    b.addTask(4.0, 0, StreamKind::Compute);
    b.addTask(6.0, 0, StreamKind::Comm, TaskTag::DpAllReduce);
    const auto r = runSimulation(std::move(b).build(1));
    EXPECT_DOUBLE_EQ(r.makespan, 6.0);
    EXPECT_DOUBLE_EQ(r.busy_compute[0], 4.0);
    EXPECT_DOUBLE_EQ(r.busy_comm[0], 6.0);
}

TEST(Engine, DiamondDependency)
{
    // A -> {B, C} -> D with B, C on different devices: D starts after
    // the slower branch.
    TaskGraph::Builder b;
    const auto a = b.addTask(1.0, 0);
    const auto b1 = b.addTask(5.0, 0);
    const auto c = b.addTask(2.0, 1);
    const auto d = b.addTask(1.0, 0);
    b.addEdge(a, b1);
    b.addEdge(a, c);
    b.addEdge(b1, d);
    b.addEdge(c, d);
    EXPECT_DOUBLE_EQ(runSimulation(std::move(b).build(2)).makespan,
                     7.0);
}

TEST(Engine, GradientBucketingOverlapPattern)
{
    // Backward ops Bwd2 -> Bwd1 on the compute stream; bucket 2's
    // All-Reduce (dep: Bwd2) overlaps Bwd1 on the comm stream; WU
    // waits for everything (Fig. 5(a)).
    TaskGraph::Builder b;
    const auto bwd2 = b.addTask(10.0, 0, StreamKind::Compute);
    const auto bwd1 = b.addTask(10.0, 0, StreamKind::Compute);
    const auto ar2 =
        b.addTask(8.0, 0, StreamKind::Comm, TaskTag::DpAllReduce);
    const auto ar1 =
        b.addTask(8.0, 0, StreamKind::Comm, TaskTag::DpAllReduce);
    const auto wu = b.addTask(2.0, 0, StreamKind::Compute);
    b.addEdge(bwd2, bwd1);
    b.addEdge(bwd2, ar2);
    b.addEdge(bwd1, ar1);
    b.addEdge(ar1, wu);
    b.addEdge(ar2, wu);
    b.addEdge(bwd1, wu);
    const auto r = runSimulation(std::move(b).build(1));
    // ar2 runs 10..18 (hidden under bwd1 10..20); ar1 runs 20..28;
    // wu 28..30.
    EXPECT_DOUBLE_EQ(r.makespan, 30.0);
}

TEST(Engine, WithoutOverlapIsSlower)
{
    // Same work with the All-Reduces on the compute stream (no
    // overlap) must take longer: 10+10+8+8+2 = 38.
    TaskGraph::Builder b;
    const auto bwd2 = b.addTask(10.0, 0);
    const auto bwd1 = b.addTask(10.0, 0);
    const auto ar2 = b.addTask(8.0, 0);
    const auto ar1 = b.addTask(8.0, 0);
    const auto wu = b.addTask(2.0, 0);
    b.addEdge(bwd2, bwd1);
    b.addEdge(bwd2, ar2);
    b.addEdge(bwd1, ar1);
    b.addEdge(ar1, wu);
    b.addEdge(ar2, wu);
    b.addEdge(bwd1, wu);
    EXPECT_DOUBLE_EQ(runSimulation(std::move(b).build(1)).makespan,
                     38.0);
}

TEST(Engine, CrossDeviceEdgeConveysCompletionTime)
{
    // P2P pattern: sender compute -> comm task on sender -> receiver
    // compute.
    TaskGraph::Builder b;
    const auto send_compute = b.addTask(3.0, 0);
    const auto p2p =
        b.addTask(1.5, 0, StreamKind::Comm, TaskTag::PipeSendRecv);
    const auto recv_compute = b.addTask(2.0, 1);
    b.addEdge(send_compute, p2p);
    b.addEdge(p2p, recv_compute);
    EXPECT_DOUBLE_EQ(runSimulation(std::move(b).build(2)).makespan,
                     6.5);
}

TEST(Engine, TagAccounting)
{
    TaskGraph::Builder b;
    b.addTask(1.0, 0, StreamKind::Compute, TaskTag::Compute);
    b.addTask(2.0, 0, StreamKind::Compute, TaskTag::TpAllReduce);
    b.addTask(3.0, 0, StreamKind::Comm, TaskTag::DpAllReduce);
    b.addTask(4.0, 0, StreamKind::Comm, TaskTag::PipeSendRecv);
    const auto r = runSimulation(std::move(b).build(1));
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::Compute)], 1.0);
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::TpAllReduce)], 2.0);
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::DpAllReduce)], 3.0);
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::PipeSendRecv)], 4.0);
}

TEST(Engine, CycleDetected)
{
    TaskGraph::Builder b;
    const auto t0 = b.addTask(1.0, 0);
    const auto t1 = b.addTask(1.0, 0);
    b.addEdge(t0, t1);
    b.addEdge(t1, t0);
    EXPECT_THROW(runSimulation(std::move(b).build(1)),
                 std::logic_error);
}

TEST(Engine, EmptyGraph)
{
    TaskGraph::Builder b;
    const auto r = runSimulation(std::move(b).build(1));
    EXPECT_DOUBLE_EQ(r.makespan, 0.0);
    EXPECT_EQ(r.executed, 0u);
}

TEST(Engine, ZeroDurationTasksLegal)
{
    TaskGraph::Builder b;
    const auto t0 = b.addTask(0.0, 0);
    const auto t1 = b.addTask(1.0, 0);
    b.addEdge(t0, t1);
    EXPECT_DOUBLE_EQ(runSimulation(std::move(b).build(1)).makespan,
                     1.0);
}

TEST(Engine, FifoQueueOrderRespectsPushOrder)
{
    // Three ready tasks on one stream execute in insertion order;
    // with durations 1, 2, 3 the completion of the last is 6
    // regardless, but busy accounting must cover all of them.
    TaskGraph::Builder b;
    b.addTask(1.0, 0);
    b.addTask(2.0, 0);
    b.addTask(3.0, 0);
    const auto r = runSimulation(std::move(b).build(1));
    EXPECT_DOUBLE_EQ(r.busy_compute[0], 6.0);
    EXPECT_DOUBLE_EQ(r.makespan, 6.0);
}

TEST(Engine, WideFanOutFanIn)
{
    TaskGraph::Builder b;
    const auto src = b.addTask(1.0, 0);
    const auto sink = b.addTask(1.0, 0);
    for (int i = 0; i < 16; ++i) {
        const auto mid = b.addTask(1.0, i % 4 + 1);
        b.addEdge(src, mid);
        b.addEdge(mid, sink);
    }
    const auto r = runSimulation(std::move(b).build(5));
    // 4 middle tasks per device serialize: 1 + 4 + 1.
    EXPECT_DOUBLE_EQ(r.makespan, 6.0);
}

TEST(Engine, AllTasksIndependent)
{
    // No edges at all: every device/stream lane fills independently,
    // the makespan is the longest lane, and busy accounting covers
    // every task exactly once.
    TaskGraph::Builder b;
    for (int d = 0; d < 3; ++d) {
        b.addTask(1.0 + d, d, StreamKind::Compute);
        b.addTask(0.5, d, StreamKind::Compute);
        b.addTask(2.0, d, StreamKind::Comm, TaskTag::PipeSendRecv);
        b.addTask(0.25, d, StreamKind::DpCollective,
                  TaskTag::DpAllReduce);
    }
    const auto r = runSimulation(std::move(b).build(3));
    EXPECT_EQ(r.executed, 12u);
    // Device 2's compute lane: 3.0 + 0.5.
    EXPECT_DOUBLE_EQ(r.makespan, 3.5);
    for (int d = 0; d < 3; ++d) {
        EXPECT_DOUBLE_EQ(r.busy_compute[d], 1.5 + d);
        EXPECT_DOUBLE_EQ(r.busy_comm[d], 2.25);
    }
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::PipeSendRecv)], 6.0);
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::DpAllReduce)], 0.75);
}

TEST(Engine, GoldenTraceSpans)
{
    // Fig. 5-style overlap shape with every span pinned by hand:
    //   fwd (0..3, compute) -> bwd (3..8, compute)
    //   bwd -> ar on the DP stream (8..12) overlapping nothing else,
    //   fwd -> p2p on the comm stream (3..4.5) feeding device 1's
    //   recv (4.5..6.5); wu waits for ar (12..13).
    TaskGraph::Builder b;
    const auto fwd = b.addTask(3.0, 0, StreamKind::Compute);
    const auto bwd = b.addTask(5.0, 0, StreamKind::Compute);
    const auto p2p =
        b.addTask(1.5, 0, StreamKind::Comm, TaskTag::PipeSendRecv);
    const auto recv = b.addTask(2.0, 1, StreamKind::Compute);
    const auto ar = b.addTask(4.0, 0, StreamKind::DpCollective,
                              TaskTag::DpAllReduce);
    const auto wu = b.addTask(1.0, 0, StreamKind::Compute);
    b.addEdge(fwd, bwd);
    b.addEdge(fwd, p2p);
    b.addEdge(p2p, recv);
    b.addEdge(bwd, ar);
    b.addEdge(ar, wu);

    std::vector<TaskSpan> trace;
    const auto r = runSimulation(std::move(b).build(2), &trace);

    ASSERT_EQ(trace.size(), 6u);
    EXPECT_DOUBLE_EQ(trace[fwd].start, 0.0);
    EXPECT_DOUBLE_EQ(trace[fwd].end, 3.0);
    EXPECT_DOUBLE_EQ(trace[bwd].start, 3.0);
    EXPECT_DOUBLE_EQ(trace[bwd].end, 8.0);
    EXPECT_DOUBLE_EQ(trace[p2p].start, 3.0);
    EXPECT_DOUBLE_EQ(trace[p2p].end, 4.5);
    EXPECT_DOUBLE_EQ(trace[recv].start, 4.5);
    EXPECT_DOUBLE_EQ(trace[recv].end, 6.5);
    EXPECT_DOUBLE_EQ(trace[ar].start, 8.0);
    EXPECT_DOUBLE_EQ(trace[ar].end, 12.0);
    EXPECT_DOUBLE_EQ(trace[wu].start, 12.0);
    EXPECT_DOUBLE_EQ(trace[wu].end, 13.0);

    EXPECT_DOUBLE_EQ(r.makespan, 13.0);
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::Compute)], 11.0);
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::DpAllReduce)], 4.0);
    EXPECT_DOUBLE_EQ(
        r.time_by_tag[static_cast<size_t>(TaskTag::PipeSendRecv)], 1.5);
    EXPECT_DOUBLE_EQ(r.busy_compute[0], 9.0);
    EXPECT_DOUBLE_EQ(r.busy_comm[0], 5.5);
    EXPECT_DOUBLE_EQ(r.busy_compute[1], 2.0);
    EXPECT_DOUBLE_EQ(r.busy_comm[1], 0.0);
}

// ------------------------------------------------------- replay mode

/** The graph shapes above, rebuilt for the replay equivalence grid. */
TaskGraph
overlapGraph()
{
    TaskGraph::Builder b;
    const auto bwd2 = b.addTask(10.0, 0, StreamKind::Compute);
    const auto bwd1 = b.addTask(10.0, 0, StreamKind::Compute);
    const auto ar2 = b.addTask(8.0, 0, StreamKind::DpCollective,
                               TaskTag::DpAllReduce);
    const auto ar1 = b.addTask(8.0, 0, StreamKind::DpCollective,
                               TaskTag::DpAllReduce);
    const auto wu = b.addTask(2.0, 0, StreamKind::Compute);
    b.addEdge(bwd2, bwd1);
    b.addEdge(bwd2, ar2);
    b.addEdge(bwd1, ar1);
    b.addEdge(ar1, wu);
    b.addEdge(ar2, wu);
    b.addEdge(bwd1, wu);
    return std::move(b).build(1);
}

TaskGraph
fanGraph()
{
    TaskGraph::Builder b;
    const auto src = b.addTask(1.0, 0);
    const auto sink = b.addTask(1.0, 0);
    for (int i = 0; i < 16; ++i) {
        const auto mid = b.addTask(0.25 * (i + 1), i % 4 + 1,
                                   i % 2 ? StreamKind::Comm
                                         : StreamKind::Compute,
                                   i % 2 ? TaskTag::PipeSendRecv
                                         : TaskTag::Compute);
        b.addEdge(src, mid);
        b.addEdge(mid, sink);
    }
    return std::move(b).build(5);
}

TaskGraph
independentGraph()
{
    TaskGraph::Builder b;
    for (int i = 0; i < 12; ++i)
        b.addTask(0.5 + i, i % 3,
                  static_cast<StreamKind>(i % kNumStreams),
                  static_cast<TaskTag>(i % kNumTaskTags));
    return std::move(b).build(3);
}

TEST(EngineReplay, MatchesQueueOnHandBuiltShapes)
{
    expectReplayMatchesQueue(overlapGraph());
    expectReplayMatchesQueue(fanGraph());
    expectReplayMatchesQueue(independentGraph());
}

TEST(EngineReplay, EmptyAndSingleTask)
{
    TaskGraph::Builder empty;
    expectReplayMatchesQueue(std::move(empty).build(1));

    TaskGraph::Builder single;
    single.addTask(5.0, 0);
    expectReplayMatchesQueue(std::move(single).build(1));
}

TEST(EngineReplay, ScheduleOrderIsTheQueueOrder)
{
    // Diamond A -> {B, C} -> D: the queue pops A, then B and C in
    // insertion (id) order, then D.
    TaskGraph::Builder b;
    const auto a = b.addTask(1.0, 0);
    const auto b1 = b.addTask(5.0, 0);
    const auto c = b.addTask(2.0, 1);
    const auto d = b.addTask(1.0, 0);
    b.addEdge(a, b1);
    b.addEdge(a, c);
    b.addEdge(b1, d);
    b.addEdge(c, d);
    const TaskGraph graph = std::move(b).build(2);
    const auto schedule = ReplaySchedule::build(*graph.topology());
    ASSERT_EQ(schedule->order.size(), 4u);
    EXPECT_EQ(schedule->order[0], a);
    EXPECT_EQ(schedule->order[1], b1);
    EXPECT_EQ(schedule->order[2], c);
    EXPECT_EQ(schedule->order[3], d);
    expectReplayMatchesQueue(graph);
}

TEST(EngineReplay, ScheduleRejectsCycles)
{
    TaskGraph::Builder b;
    const auto t0 = b.addTask(1.0, 0);
    const auto t1 = b.addTask(1.0, 0);
    b.addEdge(t0, t1);
    b.addEdge(t1, t0);
    const TaskGraph graph = std::move(b).build(1);
    EXPECT_THROW(ReplaySchedule::build(*graph.topology()),
                 std::logic_error);
}

TEST(EngineReplay, DurationCountMismatchThrows)
{
    const TaskGraph graph = overlapGraph();
    const auto schedule = ReplaySchedule::build(*graph.topology());
    const std::vector<double> wrong(graph.numTasks() + 1, 1.0);
    EXPECT_THROW(replaySimulation(*schedule, wrong), std::logic_error);
    EXPECT_THROW(replayBatch(*schedule, {wrong}), std::logic_error);
}

TEST(EngineReplay, BatchMatchesIndividualReplays)
{
    // 19 duration vectors over one shared schedule: every point must
    // equal its own single-replay run bit for bit.
    const TaskGraph graph = fanGraph();
    const auto schedule = ReplaySchedule::build(*graph.topology());

    std::vector<std::vector<double>> sets;
    for (int k = 0; k < 19; ++k) {
        std::vector<double> durations = graph.durations();
        for (size_t i = 0; i < durations.size(); ++i)
            durations[i] *= 1.0 + 0.125 * ((k + i) % 5);
        sets.push_back(std::move(durations));
    }

    const std::vector<EngineResult> batch =
        replayBatch(*schedule, sets);
    ASSERT_EQ(batch.size(), sets.size());
    for (size_t k = 0; k < sets.size(); ++k) {
        const EngineResult single =
            replaySimulation(*schedule, sets[k]);
        expectSameResult(single, batch[k]);
    }
}

TEST(EngineReplay, BatchMatchesQueueOnExpandedModelGraph)
{
    // A real pipeline-parallel expanded graph: the batched replay
    // must agree with from-scratch queue runs over re-assembled
    // graphs carrying the same duration vectors.
    const ModelConfig model = makeModel(512, 4, 8, 256, 4096);
    const ClusterSpec cluster = makeCluster(8);
    ParallelConfig plan;
    plan.tensor = 2;
    plan.data = 1;
    plan.pipeline = 2;
    plan.micro_batch_size = 1;
    plan.global_batch_size = 4;
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    const OpGraph ops = builder.build();
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    const TaskGraph graph = TaskGraph::expand(ops, table);

    const auto schedule = ReplaySchedule::build(*graph.topology());
    std::vector<std::vector<double>> sets;
    for (int k = 0; k < 5; ++k) {
        std::vector<double> durations = graph.durations();
        for (double &d : durations)
            d *= 1.0 + 0.25 * k;
        sets.push_back(std::move(durations));
    }
    const std::vector<EngineResult> batch =
        replayBatch(*schedule, sets);
    for (size_t k = 0; k < sets.size(); ++k) {
        const EngineResult queue = runSimulation(
            TaskGraph::fromParts(sets[k], graph.topology()));
        expectSameResult(queue, batch[k]);
    }
}

TEST(EngineReplay, ConcurrentRunsShareOneSchedule)
{
    // One ReplaySchedule shared by many threads, as a template shares
    // its schedule(): single and batched replays must not mutate
    // shared state (tsan covers this test via the ^Engine preset
    // filter).
    const TaskGraph graph = fanGraph();
    const auto schedule = ReplaySchedule::build(*graph.topology());
    const EngineResult want =
        replaySimulation(*schedule, graph.durations());

    constexpr int kThreads = 8;
    std::vector<EngineResult> results(kThreads);
    std::vector<std::vector<EngineResult>> batches(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[t] = replaySimulation(*schedule, graph.durations());
            batches[t] = replayBatch(
                *schedule, {graph.durations(), graph.durations()});
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        expectSameResult(want, results[t]);
        ASSERT_EQ(batches[t].size(), 2u);
        expectSameResult(want, batches[t][0]);
        expectSameResult(want, batches[t][1]);
    }
}

/** A two-stage pipeline graph over a tiny model, with collapse on or
 *  off, captured into a template. */
std::shared_ptr<const GraphTemplate>
captureModelGraph(bool collapse, TaskGraph *expanded,
                  std::vector<double> *slots)
{
    const ModelConfig model = makeModel(512, 4, 8, 256, 4096);
    const ClusterSpec cluster = makeCluster(8);
    ParallelConfig plan;
    plan.tensor = 2;
    plan.data = 2;
    plan.pipeline = 2;
    plan.micro_batch_size = 1;
    plan.global_batch_size = 8;
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    const OpGraph ops = builder.build();
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    ExpandOptions options;
    options.collapse_operators = collapse;
    auto tmpl = GraphTemplate::capture(ops, table, options, expanded);
    EXPECT_TRUE(tmpl->retimeSlots(table, plan, cluster, comm, slots));
    return tmpl;
}

TEST(EngineOpFifo, MatchesQueueAtEveryWidth)
{
    // K = 1..9 covers every full chunk and padded tail.  Each lane
    // gets its own slot table, and each table must time exactly like
    // the queue engine over the expanded graph carrying the same
    // durations.
    for (const bool collapse : {false, true}) {
        TaskGraph expanded;
        std::vector<double> base;
        const auto tmpl = captureModelGraph(collapse, &expanded, &base);
        const OpTopology &ops = tmpl->ops();
        ASSERT_EQ(ops.num_tasks, expanded.numTasks());

        std::vector<std::vector<double>> tables;
        std::vector<EngineResult> want;
        for (size_t j = 0; j < 9; ++j) {
            std::vector<double> table = base;
            for (size_t s = 0; s < table.size(); ++s)
                table[s] *= 1.0 + 0.125 * ((3 * j + s) % 5);
            std::vector<double> durations;
            for (const OpTopology::Op &op : ops.ops)
                durations.insert(durations.end(), table.begin() + op.slot,
                                 table.begin() + op.slot + op.kernels);
            want.push_back(runSimulation(TaskGraph::fromParts(
                std::move(durations), expanded.topology())));
            tables.push_back(std::move(table));
        }
        for (size_t k = 1; k <= tables.size(); ++k) {
            std::vector<const double *> ptrs;
            for (size_t j = 0; j < k; ++j)
                ptrs.push_back(tables[j].data());
            std::vector<EngineResult> got(k);
            runOpBatch(ops, ptrs.data(), k, got.data());
            for (size_t j = 0; j < k; ++j) {
                SCOPED_TRACE(::testing::Message()
                             << "collapse " << collapse << " K=" << k
                             << " lane " << j);
                expectSameResult(want[j], got[j]);
            }
        }
    }
}

TEST(EngineOpFifo, CycleFailsLikeTheQueueEngine)
{
    // Ops 0 <-> 1 form a cycle; op 2 (two kernels) is independent.
    OpTopology ops;
    OpTopology::Op two_kernels;
    two_kernels.kernels = 2;
    ops.ops = {OpTopology::Op{}, OpTopology::Op{}, two_kernels};
    ops.child_offsets = {0, 1, 2, 2};
    ops.child_list = {1, 0};
    ops.in_degree = {1, 1, 0};
    ops.num_tasks = 4;
    ops.num_slots = 2;
    const std::vector<double> slots = {1.0, 2.0};
    const double *table = slots.data();
    EngineResult result;
    try {
        runOpBatch(ops, &table, 1, &result);
        ADD_FAILURE() << "a cyclic topology must not simulate";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "simulation deadlock: executed 2 of 4 tasks"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(ReplaySchedule::build(ops), std::logic_error);
}

} // namespace
} // namespace vtrain
