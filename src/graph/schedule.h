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
 * FIFO walks (OpFifoWalk below); it never materializes a per-kernel
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
 * (engine.h replaySimulation / replayBatch, one scalar loop).  No
 * simulation path replays it any more.  It remains the reference the
 * run schedule is tested against.  build(OpTopology) derives it from
 * the op-FIFO walk; build(TaskGraph::Topology) runs the kernel-level
 * queue instead, and the derived schedule is tested array-equal to it.
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

        bool operator==(const Op &) const = default;
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
 * The operator-level FIFO (see file comment) for K points in lockstep,
 * as a walk that can pause and resume.  start() queues a topology's
 * roots; run() pops until the queue empties or `stop(op, k)` holds
 * for the entry at its head, kernel k of operator `op`, which then
 * stays queued.  Per pop run() calls `run_kernel(op, k, rec, ready,
 * end)`: `ready` holds the K data-ready times of that kernel, and the
 * callback stores the K end times into `end`.  The walk itself does
 * the queue's dependency work: a continuation's ready time is
 * max(0, end), exactly what the kernel-level queue stores for kernel
 * k+1's only parent, and an operator's last kernel raises each CSR
 * child's ready time to its end before the child's reference count
 * drops.  K = 0 walks the order alone.
 *
 * A paused walk can fork onto a second topology (engine.h runOpPair):
 * frontier() saves what a later pop can still read -- the queue in
 * order, plus each queued or partly released operator's released
 * parent count, kernel cursor and ready times -- and resume(), on the
 * same walk or a fresh one, starts the second topology from it.  A reference count rebases as
 * in_degree - released, so the fork is exact whenever every pop so
 * far released the same children in both topologies.  Every other
 * operator is either finished (no later pop touches it) or untouched.
 */
template <size_t K>
class OpFifoWalk
{
  public:
    /** The paused state resume() carries over (see class comment). */
    struct Frontier {
        /** The queued operators, head first, then the partly
         *  released ones. */
        std::vector<int32_t> op;
        size_t queued = 0;             //!< leading entries of op queued
        std::vector<int32_t> released; //!< per op: parents released
        std::vector<int32_t> cursor;   //!< per op: next kernel
        std::vector<double> ready;     //!< per op: K ready times
        size_t executed = 0;
    };

    /** Starts a walk of `topo` (alive while the walk runs) at its
     *  roots, in id order. */
    void
    start(const OpTopology &topo)
    {
        const size_t n = topo.numOps();
        topo_ = &topo;
        ring_.assign(std::max<size_t>(n, 1), 0);
        ref_.assign(topo.in_degree.begin(), topo.in_degree.end());
        cursor_.assign(n, 0);
        ready_.assign(n * K, 0.0);
        head_ = tail_ = queued_ = executed_ = 0;
        for (size_t i = 0; i < n; ++i)
            if (ref_[i] == 0)
                ring_[tail_++] = static_cast<int32_t>(i);
        queued_ = tail_;
        tail_ %= ring_.size();
    }

    /** Pops until the queue empties or `stop(op, k)` holds for its
     *  head.  @return the kernels popped since start(); below
     *  num_tasks on an empty queue means a cycle. */
    template <typename RunKernel, typename Stop>
    size_t
    run(RunKernel &&run_kernel, Stop &&stop)
    {
        const OpTopology::Op *const ops = topo_->ops.data();
        const int32_t *const child_offsets = topo_->child_offsets.data();
        const int32_t *const child_list = topo_->child_list.data();
        int32_t *const ref = ref_.data();
        int32_t *const cursor = cursor_.data();
        double *const ready = ready_.data();
        // An operator is queued at most once at a time (it re-enters
        // only after its entry pops), so a ring of one id per operator
        // holds the whole queue.  Entries stay 4 bytes on purpose:
        // carrying the operator record and ready times in them
        // measured slower on large topologies.
        int32_t *const ring = ring_.data();
        const size_t wrap = ring_.size();
        size_t head = head_;
        size_t tail = tail_;
        size_t queued = queued_;
        size_t executed = executed_;
        const auto push = [&](int32_t op) {
            ring[tail] = op;
            tail = tail + 1 == wrap ? 0 : tail + 1;
            ++queued;
        };

        std::array<double, K> end{};
        while (queued > 0) {
            const int32_t op = ring[head];
            const int32_t k = cursor[op];
            if (stop(op, k))
                break;
            head = head + 1 == wrap ? 0 : head + 1;
            --queued;
            const OpTopology::Op &rec = ops[op];
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
                               *const c_end =
                                   child_list + child_offsets[op + 1];
                 c != c_end; ++c) {
                double *const child_ready =
                    ready + static_cast<size_t>(*c) * K;
                for (size_t j = 0; j < K; ++j)
                    child_ready[j] = std::max(child_ready[j], end[j]);
                if (--ref[*c] == 0)
                    push(*c);
            }
        }
        head_ = head;
        tail_ = tail;
        queued_ = queued;
        executed_ = executed;
        return executed;
    }

    /** run() to the end of the walk. */
    template <typename RunKernel>
    size_t
    run(RunKernel &&run_kernel)
    {
        return run(run_kernel, [](int32_t, int32_t) { return false; });
    }

    /** The paused walk as a Frontier: O(operators). */
    Frontier
    frontier() const
    {
        const OpTopology &topo = *topo_;
        Frontier f;
        f.queued = queued_;
        f.executed = executed_;
        const auto keep = [&](int32_t op, int32_t released) {
            f.op.push_back(op);
            f.released.push_back(released);
            f.cursor.push_back(cursor_[op]);
            const double *const r = ready_.data() + static_cast<size_t>(op) * K;
            f.ready.insert(f.ready.end(), r, r + K);
        };
        for (size_t i = 0, at = head_; i < queued_; ++i) {
            const int32_t op = ring_[at];
            keep(op, topo.in_degree[op]);
            at = at + 1 == ring_.size() ? 0 : at + 1;
        }
        for (size_t i = 0; i < topo.numOps(); ++i)
            if (ref_[i] > 0 && ref_[i] < topo.in_degree[i])
                keep(static_cast<int32_t>(i), topo.in_degree[i] - ref_[i]);
        return f;
    }

    /** Starts a walk of `topo` from `f`: its queue and operators
     *  replace the roots (see class comment).  `topo` must release
     *  the same children as the paused topology for every pop so
     *  far. */
    void
    resume(const OpTopology &topo, const Frontier &f)
    {
        start(topo);
        for (size_t i = 0; i < f.op.size(); ++i) {
            const int32_t op = f.op[i];
            ref_[op] = topo.in_degree[op] - f.released[i];
            cursor_[op] = f.cursor[i];
            std::copy_n(f.ready.begin() + static_cast<std::ptrdiff_t>(i * K),
                        K, ready_.begin() + static_cast<std::ptrdiff_t>(op) * K);
        }
        std::copy_n(f.op.begin(), f.queued, ring_.begin());
        head_ = 0;
        queued_ = f.queued;
        tail_ = queued_ % ring_.size();
        executed_ = f.executed;
    }

  private:
    const OpTopology *topo_ = nullptr;
    std::vector<int32_t> ref_;
    std::vector<int32_t> cursor_;
    std::vector<double> ready_;
    std::vector<int32_t> ring_;
    size_t head_ = 0;
    size_t tail_ = 0;
    size_t queued_ = 0;
    size_t executed_ = 0;
};

/**
 * One whole OpFifoWalk of `topo`: @return the number of kernels
 * popped; a result below topo.num_tasks means a cycle.
 */
template <size_t K, typename RunKernel>
size_t
walkOpFifo(const OpTopology &topo, RunKernel &&run_kernel)
{
    OpFifoWalk<K> walk;
    walk.start(topo);
    return walk.run(run_kernel);
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
