/**
 * @file
 * Operator-granularity execution order, and the replay schedules
 * derived from it.
 *
 * The simulation engine's FIFO ready queue (sim/engine.h, Algorithm 1)
 * pops tasks in insertion order, and tasks are inserted exactly when
 * their reference count reaches zero — both pure functions of the
 * dependency structure.  Durations therefore never change the pop
 * sequence.
 *
 * TaskGraph::expand chains an operator's kernels k -> k+1, and only
 * kernel 0 has parents outside the operator.  Kernel k+1 therefore
 * enters the queue at the exact moment kernel k pops, which makes the
 * kernel-level queue equivalent to a FIFO of (operator, kernel cursor)
 * entries: popping an entry runs one kernel, re-appends the operator
 * while it has kernels left, and after its last kernel releases the
 * operator's children in CSR order.  OpTopology is the structure that
 * FIFO walks (walkOpFifo below); it never materializes a per-kernel
 * task, edge or reference count.
 *
 * A RunSchedule is that walk recorded once per topology in
 * compressed form, for the warm path (engine.h replayRuns).  The pop
 * order is cut into runs: edge i -> j joins one run when j is i's
 * only child, i is j's only parent, both run on one lane, and j is
 * the next task that lane pops.  For such a j the queue engine's
 * max(ready, timeline) is i's end on both sides, so a run times as
 * `end = max(ready, timeline) + d0; end += d1; ...` with no per-task
 * ready time, bit for bit.  Only a run's last member has children,
 * and each child heads a run.  A capped GPT-3 or MT-NLG topology
 * holds 13-240 tasks per run.  Layout (build() derives it from one
 * untimed op-FIFO walk):
 *
 *   lane[r], length[r]  run r's timeline lane and member count, runs
 *                       in head pop order (u16 each; longer chains
 *                       split, which times identically);
 *   child_offsets / child_list
 *                       the runs headed by the children of run r's
 *                       last member;
 *   slot[]              every member's slot id (u16), run after run:
 *                       a duration is slot_table[slot], so replay
 *                       reads O(slots) per-plan data, never one value
 *                       per task;
 *   sum_offsets / sum_slot
 *                       one pop-order slot sequence per accumulator
 *                       whose additions interleave across lanes:
 *                       time_by_tag[t], then busy_comm[device] (a
 *                       device's comm streams share it).
 *                       busy_compute needs none: a device has one
 *                       compute lane, so it rides that lane's runs.
 *
 * That is 4-5 bytes per task; a ReplaySchedule takes 21.
 *
 * A ReplaySchedule is the uncompressed form: everything the engine
 * touches per task, in pop order, with one duration per task
 * (engine.h replaySimulation / replayBatch).  No simulation path
 * replays it any more.  It remains the reference the run schedule is
 * tested against.  build(OpTopology) derives it from the op-FIFO
 * walk; build(TaskGraph::Topology) runs the kernel-level queue
 * instead, and the derived schedule is tested array-equal to it.
 * Layout (all arrays indexed by schedule position, SoA):
 *   order[i]      the original task id executed i-th — used to gather
 *                 durations and scatter trace spans;
 *   lane[i]       timeline slot, device * kNumStreams + stream;
 *   busy_lane[i]  busy-accounting slot, device * 2 + (stream != Compute);
 *   tag[i]        TaskTag index for time_by_tag accounting;
 *   child_offsets / child_list
 *                 the CSR child arrays permuted to schedule positions.
 *
 * Both replays are bit-identical to the queue engine.  Every
 * floating-point sum happens in the queue's pop order on the same
 * values.  Ready times and the makespan are maxima, which do not
 * depend on order.
 */
#ifndef VTRAIN_GRAPH_SCHEDULE_H
#define VTRAIN_GRAPH_SCHEDULE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/task_graph.h"

namespace vtrain {

/**
 * The operator-granularity structure of an expanded topology: one
 * record per operator plus the operator CSR.  Kernel durations are
 * not stored; kernel k of an operator takes its duration from slot
 * `slot + k` of a per-plan slot table (GraphTemplate::retimeSlots).
 * Operator i expands to TaskGraph::expand's task ids
 * sum(kernels of operators < i) onwards.
 */
struct OpTopology {
    /** One operator, packed into 16 bytes. */
    struct Op {
        int32_t slot = 0;      //!< slot of kernel 0
        int32_t lane = 0;      //!< device * kNumStreams + stream
        int32_t busy_lane = 0; //!< device * 2 + (stream != Compute)
        uint16_t kernels = 1;  //!< tasks this operator expands into
        uint8_t tag = 0;       //!< TaskTag
    };

    std::vector<Op> ops;
    std::vector<int32_t> child_offsets{0}; //!< size numOps()+1
    std::vector<int32_t> child_list;
    std::vector<int32_t> in_degree;
    int num_devices = 1;
    size_t num_tasks = 0; //!< sum of ops[].kernels
    size_t num_slots = 0; //!< entries of a slot table

    size_t numOps() const { return ops.size(); }

    /** Kernel-level edge count: the k -> k+1 chains plus one edge per
     *  operator edge. */
    size_t numTaskEdges() const
    {
        return num_tasks - ops.size() + child_list.size();
    }

    /** Approximate resident size, for cache byte budgets. */
    size_t approxBytes() const;
};

/**
 * Walks the operator-level FIFO (see file comment) for K points in
 * lockstep and @return the number of kernels popped; a result below
 * topo.num_tasks means a cycle.  Per pop it calls
 * `run_kernel(op, k, rec, ready, end)` for kernel k of operator `op`:
 * `ready` holds the K data-ready times of that kernel, and the
 * callback stores the K end times into `end`.  The walk itself does
 * the queue's dependency work: a continuation's ready time is
 * max(0, end), exactly what the kernel-level queue stores for kernel
 * k+1's only parent, and an operator's last kernel raises each CSR
 * child's ready time to its end before the child's reference count
 * drops.  K = 0 walks the order alone.
 */
template <size_t K, typename RunKernel>
size_t
walkOpFifo(const OpTopology &topo, RunKernel &&run_kernel)
{
    const size_t n = topo.ops.size();
    const OpTopology::Op *const ops = topo.ops.data();
    const int32_t *const child_offsets = topo.child_offsets.data();
    const int32_t *const child_list = topo.child_list.data();
    std::vector<int32_t> ref_vec = topo.in_degree;
    std::vector<int32_t> cursor_vec(n, 0);
    std::vector<double> ready_vec(n * K, 0.0);
    // An operator is queued at most once at a time (it re-enters only
    // after its entry pops), so an n-entry ring of operator ids holds
    // the whole queue.  Entries stay 4 bytes on purpose: carrying the
    // operator record and ready times in them measured slower on
    // large topologies.
    std::vector<int32_t> ring_vec(n);
    int32_t *const ref = ref_vec.data();
    int32_t *const cursor = cursor_vec.data();
    double *const ready = ready_vec.data();
    int32_t *const ring = ring_vec.data();
    size_t head = 0;
    size_t tail = 0;
    size_t queued = 0;
    const auto push = [&](int32_t op) {
        ring[tail] = op;
        tail = tail + 1 == n ? 0 : tail + 1;
        ++queued;
    };
    for (size_t i = 0; i < n; ++i)
        if (ref[i] == 0)
            push(static_cast<int32_t>(i));

    size_t executed = 0;
    std::array<double, K> end{};
    while (queued > 0) {
        const int32_t op = ring[head];
        head = head + 1 == n ? 0 : head + 1;
        --queued;
        const OpTopology::Op &rec = ops[op];
        const int32_t k = cursor[op];
        double *const op_ready = ready + static_cast<size_t>(op) * K;
        run_kernel(op, k, rec, op_ready, end.data());
        ++executed;
        if (k + 1 < rec.kernels) {
            cursor[op] = k + 1;
            for (size_t j = 0; j < K; ++j)
                op_ready[j] = std::max(0.0, end[j]);
            push(op);
            continue;
        }
        for (const int32_t *c = child_list + child_offsets[op],
                           *const c_end = child_list + child_offsets[op + 1];
             c != c_end; ++c) {
            double *const child_ready = ready + static_cast<size_t>(*c) * K;
            for (size_t j = 0; j < K; ++j)
                child_ready[j] = std::max(child_ready[j], end[j]);
            if (--ref[*c] == 0)
                push(*c);
        }
    }
    return executed;
}

/**
 * The run-compressed replay schedule of an OpTopology's kernel-level
 * expansion (see file doc): what a warm simulation replays.
 */
struct RunSchedule {
    /** Per run, in head pop order: timeline lane (device *
     *  kNumStreams + stream) and member count. */
    std::vector<uint16_t> lane;
    std::vector<uint16_t> length;
    /** Per run: the runs headed by the children of its last member
     *  are child_list[child_offsets[r] .. child_offsets[r+1]). */
    std::vector<int32_t> child_offsets{0};
    std::vector<int32_t> child_list;
    /** Member slot ids, run after run (numTasks() entries). */
    std::vector<uint16_t> slot;
    /** The pop-order accumulators, each a slot-id sequence in pop
     *  order: accumulator a < kNumTaskTags is time_by_tag[a], then
     *  kNumTaskTags + d is busy_comm[d].  Accumulator a's slots are
     *  sum_slot[sum_offsets[a] .. sum_offsets[a+1]). */
    std::vector<int32_t> sum_offsets;
    std::vector<uint16_t> sum_slot;
    int num_devices = 1;
    size_t num_slots = 0; //!< entries of the slot tables it replays

    size_t numRuns() const { return lane.size(); }
    size_t numTasks() const { return slot.size(); }

    /** Resident size: exactly what build() allocated. */
    size_t approxBytes() const;

    /**
     * What approxBytes() will read for a schedule of `runs` runs over
     * `ops`.  The run count is known only after the walk; the number
     * of run-to-run edges follows from it (every edge of the
     * expansion either joins two members of one run or leaves a run's
     * last member).
     */
    static size_t bytesFor(const OpTopology &ops, size_t runs);

    /** @return true when `ops` fits the narrow ids: slots and lanes
     *  below 2^16. */
    static bool representable(const OpTopology &ops);

    /**
     * Derives the run schedule of `ops` from one untimed op-FIFO walk.
     * Requires representable(ops); fails (throws) on a cyclic
     * topology, the same condition the engine reports as a deadlock.
     */
    static std::shared_ptr<const RunSchedule> build(const OpTopology &ops);
};

/**
 * The kernel-level execution-order view of one topology (see file
 * doc): the reference the run schedule is tested against.
 */
struct ReplaySchedule {
    std::vector<int32_t> order;
    std::vector<int32_t> lane;
    std::vector<int32_t> busy_lane;
    std::vector<uint8_t> tag;
    std::vector<int32_t> child_offsets{0};
    std::vector<int32_t> child_list;
    int num_devices = 1;

    size_t numTasks() const { return order.size(); }
    size_t numEdges() const { return child_list.size(); }

    /** Approximate resident size. */
    size_t approxBytes() const;

    /**
     * Derives the schedule of the kernel-level expansion of `ops` from
     * one untimed op-FIFO walk.  Fails (throws) on a cyclic topology,
     * the same condition the engine reports as a deadlock.
     */
    static std::shared_ptr<const ReplaySchedule>
    build(const OpTopology &ops);

    /** The same schedule, derived by running the kernel-level queue
     *  over an expanded topology (the reference build(OpTopology) is
     *  tested against). */
    static std::shared_ptr<const ReplaySchedule>
    build(const TaskGraph::Topology &topo);
};

} // namespace vtrain

#endif // VTRAIN_GRAPH_SCHEDULE_H
