#include "sim/engine.h"

#include <algorithm>
#include <type_traits>

#include "util/logging.h"

namespace vtrain {

namespace {

/**
 * Algorithm 1 core, compiled separately with and without tracing so
 * the per-task branch never runs in the (hot) untraced replay.
 */
template <bool kTrace>
EngineResult
runSimulationImpl(const TaskGraph &graph, std::vector<TaskSpan> *trace)
{
    const double *const durations = graph.durations().data();
    const TaskGraph::TaskMeta *const metas = graph.metas().data();
    const size_t n = graph.numTasks();
    const int n_devices = graph.numDevices();

    // Hoist the CSR arrays out of the shared topology so the loop
    // below never chases the shared_ptr indirection per task.
    const TaskGraph::Topology &topo = *graph.topology();
    const int32_t *const child_offsets = topo.child_offsets.data();
    const int32_t *const child_list = topo.child_list.data();

    EngineResult result;
    result.busy_compute.assign(n_devices, 0.0);
    result.busy_comm.assign(n_devices, 0.0);
    double *const busy_compute = result.busy_compute.data();
    double *const busy_comm = result.busy_comm.data();
    std::array<double, kNumTaskTags> time_by_tag{};

    // Earliest data-ready time of each task (max over parents' ends).
    std::vector<double> ready_vec(n, 0.0);
    std::vector<int32_t> ref_vec = topo.in_degree;
    double *const ready = ready_vec.data();
    int32_t *const ref = ref_vec.data();

    // Per-(device, stream) timeline T (Algorithm 1 line 1, refined by
    // stream so bucketed All-Reduce overlaps backward compute).
    std::vector<double> timeline(
        static_cast<size_t>(n_devices) * kNumStreams, 0.0);

    // FIFO task queue (Algorithm 1 lines 2, 6, 10, 17): tasks are
    // appended once their reference count hits zero and popped in
    // insertion order.
    std::vector<int32_t> queue;
    queue.reserve(n);
    for (size_t i = 0; i < n; ++i)
        if (ref[i] == 0)
            queue.push_back(static_cast<int32_t>(i));

    size_t head = 0;
    double makespan = 0.0;
    while (head < queue.size()) {
        const int32_t u = queue[head++]; // fetch in FIFO order
        const double duration = durations[u];
        const TaskGraph::TaskMeta meta = metas[u];
        const size_t lane = static_cast<size_t>(meta.device) *
                                kNumStreams +
                            static_cast<size_t>(meta.stream);

        const double start = std::max(ready[u], timeline[lane]);
        const double end = start + duration;
        timeline[lane] = end; // proceed the timeline (line 12)
        makespan = std::max(makespan, end);
        if constexpr (kTrace)
            (*trace)[u] = TaskSpan{start, end};

        if (meta.stream == StreamKind::Compute)
            busy_compute[meta.device] += duration;
        else
            busy_comm[meta.device] += duration;
        time_by_tag[static_cast<size_t>(meta.tag)] += duration;

        // Update child tasks (lines 13-19).
        for (const int32_t *c = child_list + child_offsets[u],
                           *const c_end = child_list + child_offsets[u + 1];
             c != c_end; ++c) {
            const int32_t v = *c;
            ready[v] = std::max(ready[v], end);
            if (--ref[v] == 0)
                queue.push_back(v);
        }
    }

    result.executed = head;
    VTRAIN_CHECK(result.executed == n,
                 "simulation deadlock: executed ", result.executed,
                 " of ", n, " tasks (cyclic dependency?)");
    result.makespan = makespan;
    result.time_by_tag = time_by_tag;
    return result;
}

} // namespace

EngineResult
runSimulation(const TaskGraph &graph, std::vector<TaskSpan> *trace)
{
    if (trace) {
        trace->assign(graph.numTasks(), TaskSpan{});
        return runSimulationImpl<true>(graph, trace);
    }
    return runSimulationImpl<false>(graph, nullptr);
}

namespace {

/**
 * Linear-pass replay core (see engine.h).  Visits positions in the
 * queue engine's pop order, so the per-lane timeline evolution and
 * every floating-point accumulation are bit-identical to
 * runSimulationImpl over the same topology.
 */
template <bool kTrace>
EngineResult
replayImpl(const ReplaySchedule &schedule, const double *const durations,
           std::vector<TaskSpan> *trace)
{
    const size_t n = schedule.numTasks();
    const int n_devices = schedule.num_devices;
    const int32_t *const order = schedule.order.data();
    const int32_t *const lane = schedule.lane.data();
    const int32_t *const busy_lane = schedule.busy_lane.data();
    const uint8_t *const tag = schedule.tag.data();
    const int32_t *const child_offsets = schedule.child_offsets.data();
    const int32_t *const child_list = schedule.child_list.data();

    // busy_compute and busy_comm interleaved per device (the
    // busy_lane encoding), split apart once at the end.
    std::vector<double> busy(static_cast<size_t>(n_devices) * 2, 0.0);
    std::array<double, kNumTaskTags> time_by_tag{};
    std::vector<double> ready_vec(n, 0.0);
    std::vector<double> timeline(
        static_cast<size_t>(n_devices) * kNumStreams, 0.0);
    double *const ready = ready_vec.data();

    double makespan = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double duration = durations[order[i]];
        const int32_t l = lane[i];
        const double start = std::max(ready[i], timeline[l]);
        const double end = start + duration;
        timeline[l] = end;
        makespan = std::max(makespan, end);
        busy[busy_lane[i]] += duration;
        time_by_tag[tag[i]] += duration;
        if constexpr (kTrace)
            (*trace)[order[i]] = TaskSpan{start, end};

        for (const int32_t *c = child_list + child_offsets[i],
                           *const c_end =
                               child_list + child_offsets[i + 1];
             c != c_end; ++c)
            ready[*c] = std::max(ready[*c], end);
    }

    EngineResult result;
    result.busy_compute.resize(n_devices);
    result.busy_comm.resize(n_devices);
    for (int d = 0; d < n_devices; ++d) {
        result.busy_compute[d] = busy[static_cast<size_t>(d) * 2];
        result.busy_comm[d] = busy[static_cast<size_t>(d) * 2 + 1];
    }
    result.time_by_tag = time_by_tag;
    result.makespan = makespan;
    result.executed = n;
    return result;
}

/**
 * Widest lockstep lane count of runOpBatch and replayRuns.  The op
 * FIFO's per-pop queue work (ring, cursor, reference counts) is shared
 * by every lane, so wider chunks amortize more of it: eight lanes took
 * 15-30% less time per point than four on MT-NLG p=35 and p=105.  A
 * run replay reads only slot tables and per-run ready times, which
 * stay in L1/L2 at this width.  A throughput knob only; every width
 * is bit-identical.
 */
constexpr size_t kMaxSlotWidth = 8;

/**
 * Splits a chunk's interleaved accumulators into per-point
 * EngineResults: the one unpack the op-FIFO and run chunks share, so
 * the result layout cannot drift between them.  `inline` keeps GCC
 * inlining it into every chunk; an out-of-line copy made the K = 1
 * run replay 5-15% slower (BM_WarmMiss_Gpt3, GCC 12 -O3).
 */
inline void
unpackChunkResults(size_t k, size_t n, int n_devices, const double *busy,
                   const double *tags, const double *makespan,
                   EngineResult *results)
{
    for (size_t j = 0; j < k; ++j) {
        EngineResult &result = results[j];
        result.makespan = makespan[j];
        result.executed = n;
        result.busy_compute.resize(n_devices);
        result.busy_comm.resize(n_devices);
        for (int d = 0; d < n_devices; ++d) {
            result.busy_compute[d] =
                busy[(static_cast<size_t>(d) * 2) * k + j];
            result.busy_comm[d] =
                busy[(static_cast<size_t>(d) * 2 + 1) * k + j];
        }
        for (int t = 0; t < kNumTaskTags; ++t)
            result.time_by_tag[t] =
                tags[static_cast<size_t>(t) * k + j];
    }
}

/**
 * A slot-major copy of `count` slot tables, K contiguous durations
 * per slot.  Lanes past `count` repeat the last table (their results
 * are never reported), so a group of 3 or 5 points pays for one
 * K-wide pass.
 */
template <size_t K>
std::vector<double>
slotMajor(size_t num_slots, const double *const *slot_tables, size_t count)
{
    std::vector<double> slots(num_slots * K);
    for (size_t s = 0; s < num_slots; ++s)
        for (size_t j = 0; j < K; ++j)
            slots[s * K + j] = slot_tables[std::min(j, count - 1)][s];
    return slots;
}

/**
 * Runs `chunk(width, begin, n)` over `count` points: full
 * kMaxSlotWidth-wide chunks, then one chunk of the narrowest width
 * that holds the rest (padded; see slotMajor).  `width` is a
 * std::integral_constant, so each chunk body is compiled per width.
 * The per-pop (or per-run) bookkeeping is shared by every lane, so
 * the fewest passes win; results do not depend on the split.
 */
template <typename Chunk>
void
forEachSlotChunk(size_t count, Chunk &&chunk)
{
    static_assert(kMaxSlotWidth == 8,
                  "update the tail dispatch below with the width table");
    size_t begin = 0;
    for (; count - begin >= kMaxSlotWidth; begin += kMaxSlotWidth)
        chunk(std::integral_constant<size_t, 8>{}, begin, kMaxSlotWidth);
    const size_t rest = count - begin;
    if (rest > 4)
        chunk(std::integral_constant<size_t, 8>{}, begin, rest);
    else if (rest > 2)
        chunk(std::integral_constant<size_t, 4>{}, begin, rest);
    else if (rest == 2)
        chunk(std::integral_constant<size_t, 2>{}, begin, rest);
    else if (rest == 1)
        chunk(std::integral_constant<size_t, 1>{}, begin, rest);
}

/**
 * Whether popping operator `op` of `a` does the same work in a walk of
 * `b`: the id is below both operator counts, and the 16-byte record,
 * the CSR children and each child's in-degree are the same in both.
 * Checked at each operator's first pop inside the walk, so the pair
 * allocates nothing per operator beyond the walk state.
 */
bool
shareable(const OpTopology &a, const OpTopology &b, int32_t op)
{
    const auto i = static_cast<size_t>(op);
    if (i >= b.numOps() || !(a.ops[i] == b.ops[i]))
        return false;
    const int32_t begin = a.child_offsets[i];
    const int32_t end = a.child_offsets[i + 1];
    if (b.child_offsets[i + 1] - b.child_offsets[i] != end - begin)
        return false;
    const int32_t *other = b.child_list.data() + b.child_offsets[i];
    for (int32_t e = begin; e < end; ++e, ++other) {
        const int32_t c = a.child_list[e];
        if (*other != c || a.in_degree[c] != b.in_degree[c])
            return false;
    }
    return true;
}

/** @return true when `a` and `b` have the same roots. */
bool
sameRoots(const OpTopology &a, const OpTopology &b)
{
    const auto root = [](const OpTopology &t, size_t i) {
        return i < t.numOps() && t.in_degree[i] == 0;
    };
    for (size_t i = 0; i < std::max(a.numOps(), b.numOps()); ++i)
        if (root(a, i) != root(b, i))
            return false;
    return true;
}

/**
 * One K-wide lockstep walk of the operator-level FIFO (see
 * runOpBatch), or a forked pair walk (see runOpPair) when `b` is
 * non-null; the pair needs sameRoots(a, *b).  The per-kernel body is
 * replayImpl's per-task step, K lanes wide, fed from a slot-major
 * copy of the K slot tables.
 * @return the pops the pair shared.
 */
template <size_t K>
size_t
opChunk(const OpTopology &a, const OpTopology *b,
        const double *const *slot_tables, size_t count,
        EngineResult *results_a, EngineResult *results_b)
{
    const int n_devices = a.num_devices;
    const std::vector<double> slots_vec =
        slotMajor<K>(a.num_slots, slot_tables, count);
    std::vector<double> timeline_vec(
        static_cast<size_t>(n_devices) * kNumStreams * K, 0.0);
    std::vector<double> busy_vec(
        static_cast<size_t>(n_devices) * 2 * K, 0.0);
    std::vector<double> tags_vec(
        static_cast<size_t>(kNumTaskTags) * K, 0.0);
    const double *__restrict const slots = slots_vec.data();
    double *__restrict const timeline = timeline_vec.data();
    double *__restrict const busy = busy_vec.data();
    double *__restrict const tags = tags_vec.data();
    double makespan[K] = {};

    const auto run_kernel = [&](int32_t, int32_t k,
                                const OpTopology::Op &rec,
                                const double *__restrict ready,
                                double *__restrict end) {
        const double *__restrict const duration =
            slots + static_cast<size_t>(rec.slot + k) * K;
        double *__restrict const lane_base = timeline + rec.lane * K;
        double *__restrict const busy_base = busy + rec.busy_lane * K;
        double *__restrict const tag_base = tags + rec.tag * K;
        for (size_t j = 0; j < K; ++j) {
            const double start = std::max(ready[j], lane_base[j]);
            end[j] = start + duration[j];
            lane_base[j] = end[j];
            busy_base[j] += duration[j];
            tag_base[j] += duration[j];
            makespan[j] = std::max(makespan[j], end[j]);
        }
    };
    const auto finish = [&](const OpTopology &topo, size_t executed,
                            EngineResult *results) {
        VTRAIN_CHECK(executed == topo.num_tasks,
                     "simulation deadlock: executed ", executed, " of ",
                     topo.num_tasks, " tasks (cyclic dependency?)");
        EngineResult padded[K];
        unpackChunkResults(K, executed, n_devices, busy, tags,
                                   makespan, padded);
        std::move(padded, padded + count, results);
    };

    // The pair: walk a up to the first pop b would do differently,
    // keep the fork, finish a, then finish b from the fork.  The
    // clocks are saved and restored through the body's own pointers.
    const std::pair<double *, size_t> clocks[] = {
        {timeline, timeline_vec.size()},
        {busy, busy_vec.size()},
        {tags, tags_vec.size()},
        {makespan, K}};
    typename OpFifoWalk<K>::Frontier fork;
    std::vector<double> fork_clocks;
    {
        OpFifoWalk<K> walk;
        walk.start(a);
        if (!b) {
            finish(a, walk.run(run_kernel), results_a);
            return 0;
        }
        walk.run(run_kernel, [&](int32_t op, int32_t k) {
            return k == 0 && !shareable(a, *b, op);
        });
        fork = walk.frontier();
        for (const auto &[clock, size] : clocks)
            fork_clocks.insert(fork_clocks.end(), clock, clock + size);
        finish(a, walk.run(run_kernel), results_a);
    }

    // b's walk state is allocated after a's is freed.  One state
    // sized for both graphs timed the same, but left the allocator's
    // arenas holding ~40 MB more on repeated MT-NLG sweeps (perfbench
    // mtnlg_dse peak RSS 190 against 150-154 MB).
    const double *saved = fork_clocks.data();
    for (const auto &[clock, size] : clocks) {
        std::copy_n(saved, size, clock);
        saved += size;
    }
    OpFifoWalk<K> walk;
    walk.resume(*b, fork);
    finish(*b, walk.run(run_kernel), results_b);
    return fork.executed;
}

/**
 * One K-wide lockstep replay of a run schedule (see replayRuns).
 *
 * Timing pass, runs in head pop order: a run starts at
 * max(ready, lane timeline) like the queue engine's head task, and
 * each member adds its duration to the running end -- for a chained
 * member the queue's max(ready, timeline) is the previous member's
 * end on both sides, so the sum is the queue's own arithmetic.
 * busy_compute rides the same chain (one compute lane per device,
 * and runs on a lane are consecutive pops).  The last member's end
 * moves the lane, the makespan (ends only grow within a run) and the
 * child runs' ready times.
 *
 * Sum pass: time_by_tag and busy_comm accumulate across lanes in pop
 * order, so each sums its own pop-order slot sequence in a register.
 */
template <size_t K>
void
runChunk(const RunSchedule &runs, const double *const *slot_tables,
         size_t count, EngineResult *results)
{
    const int n_devices = runs.num_devices;
    const size_t n_runs = runs.numRuns();
    const std::vector<double> slots_vec =
        slotMajor<K>(runs.num_slots, slot_tables, count);
    std::vector<double> ready_vec(n_runs * K, 0.0);
    std::vector<double> timeline_vec(
        static_cast<size_t>(n_devices) * kNumStreams * K, 0.0);
    std::vector<double> busy_vec(
        static_cast<size_t>(n_devices) * 2 * K, 0.0);
    std::vector<double> tags_vec(
        static_cast<size_t>(kNumTaskTags) * K, 0.0);
    const double *__restrict const slots = slots_vec.data();
    double *__restrict const ready = ready_vec.data();
    double *__restrict const timeline = timeline_vec.data();
    double *__restrict const busy = busy_vec.data();
    double *__restrict const tags = tags_vec.data();
    const uint16_t *const run_lane = runs.lane.data();
    const uint16_t *const run_length = runs.length.data();
    const int32_t *const child_offsets = runs.child_offsets.data();
    const int32_t *const child_list = runs.child_list.data();
    double makespan[K] = {};
    // A comm run's chained busy sum lands here and is dropped: the sum
    // pass computes busy_comm in pop order instead.
    double comm_scratch[K] = {};

    const uint16_t *member = runs.slot.data();
    for (size_t r = 0; r < n_runs; ++r) {
        const size_t lane = run_lane[r];
        const uint16_t *const member_end = member + run_length[r];
        double *__restrict const lane_base = timeline + lane * K;
        const double *__restrict const run_ready = ready + r * K;
        double *__restrict const busy_base =
            lane % kNumStreams == static_cast<size_t>(StreamKind::Compute)
                ? busy + lane / kNumStreams * 2 * K
                : comm_scratch;
        double end[K];
        double acc[K];
        for (size_t j = 0; j < K; ++j) {
            end[j] = std::max(run_ready[j], lane_base[j]);
            acc[j] = busy_base[j];
        }
        for (; member != member_end; ++member) {
            const double *__restrict const d =
                slots + static_cast<size_t>(*member) * K;
            for (size_t j = 0; j < K; ++j) {
                end[j] += d[j];
                acc[j] += d[j];
            }
        }
        for (size_t j = 0; j < K; ++j) {
            busy_base[j] = acc[j];
            lane_base[j] = end[j];
            makespan[j] = std::max(makespan[j], end[j]);
        }
        for (const int32_t *c = child_list + child_offsets[r],
                           *const c_end = child_list + child_offsets[r + 1];
             c != c_end; ++c) {
            double *__restrict const child_ready =
                ready + static_cast<size_t>(*c) * K;
            for (size_t j = 0; j < K; ++j)
                child_ready[j] = std::max(child_ready[j], end[j]);
        }
    }

    const int32_t *const sum_offsets = runs.sum_offsets.data();
    const uint16_t *const sum_slot = runs.sum_slot.data();
    for (int a = 0; a < kNumTaskTags + n_devices; ++a) {
        double acc[K] = {};
        for (const uint16_t *s = sum_slot + sum_offsets[a],
                            *const s_end = sum_slot + sum_offsets[a + 1];
             s != s_end; ++s) {
            const double *__restrict const d =
                slots + static_cast<size_t>(*s) * K;
            for (size_t j = 0; j < K; ++j)
                acc[j] += d[j];
        }
        double *__restrict const dest =
            a < kNumTaskTags
                ? tags + static_cast<size_t>(a) * K
                : busy + (static_cast<size_t>(a - kNumTaskTags) * 2 + 1) * K;
        for (size_t j = 0; j < K; ++j)
            dest[j] = acc[j];
    }

    EngineResult padded[K];
    unpackChunkResults(K, runs.numTasks(), n_devices, busy, tags,
                               makespan, padded);
    std::move(padded, padded + count, results);
}

} // namespace

void
runOpBatch(const OpTopology &ops, const double *const *slot_tables,
           size_t count, EngineResult *results)
{
    forEachSlotChunk(count, [&](auto width, size_t begin, size_t n) {
        opChunk<decltype(width)::value>(ops, nullptr, slot_tables + begin,
                                        n, results + begin, nullptr);
    });
}

size_t
runOpPair(const OpTopology &a, const OpTopology &b,
          const double *const *slot_tables, size_t count,
          EngineResult *results_a, EngineResult *results_b)
{
    VTRAIN_CHECK(a.num_slots == b.num_slots &&
                     a.num_devices == b.num_devices,
                 "an op pair shares one slot table per plan");
    if (!sameRoots(a, b)) {
        runOpBatch(a, slot_tables, count, results_a);
        runOpBatch(b, slot_tables, count, results_b);
        return 0;
    }
    size_t shared = 0;
    forEachSlotChunk(count, [&](auto width, size_t begin, size_t n) {
        shared = opChunk<decltype(width)::value>(
            a, &b, slot_tables + begin, n, results_a + begin,
            results_b + begin);
    });
    return shared;
}

void
replayRuns(const RunSchedule &runs, const double *const *slot_tables,
           size_t count, EngineResult *results)
{
    forEachSlotChunk(count, [&](auto width, size_t begin, size_t n) {
        runChunk<decltype(width)::value>(runs, slot_tables + begin, n, results + begin);
    });
}

EngineResult
replaySimulation(const ReplaySchedule &schedule,
                 const std::vector<double> &durations,
                 std::vector<TaskSpan> *trace)
{
    VTRAIN_CHECK(durations.size() == schedule.numTasks(),
                 "replay durations (", durations.size(),
                 ") do not match the schedule (", schedule.numTasks(),
                 " tasks)");
    if (trace) {
        trace->assign(schedule.numTasks(), TaskSpan{});
        return replayImpl<true>(schedule, durations.data(), trace);
    }
    return replayImpl<false>(schedule, durations.data(), nullptr);
}

const char *
replayKernelName(ReplayKernel)
{
    return "scalar";
}

ReplayKernel
activeReplayKernel()
{
    return ReplayKernel::Scalar;
}

std::vector<EngineResult>
replayBatch(const ReplaySchedule &schedule,
            const std::vector<std::vector<double>> &duration_sets)
{
    for (const std::vector<double> &set : duration_sets)
        VTRAIN_CHECK(set.size() == schedule.numTasks(),
                     "replay durations (", set.size(),
                     ") do not match the schedule (", schedule.numTasks(),
                     " tasks)");
    std::vector<EngineResult> results;
    results.reserve(duration_sets.size());
    for (const std::vector<double> &set : duration_sets)
        results.push_back(replaySimulation(schedule, set));
    return results;
}

EngineStats
snapshot(const EngineCounters &counters)
{
    EngineStats stats;
    stats.replay_runs =
        counters.replay_runs.load(std::memory_order_relaxed);
    stats.queue_runs =
        counters.queue_runs.load(std::memory_order_relaxed);
    stats.batched_points =
        counters.batched_points.load(std::memory_order_relaxed);
    return stats;
}

} // namespace vtrain
