/**
 * @file
 * Single-iteration training-time simulation (paper Algorithm 1).
 *
 * A per-device/per-stream timeline plus a FIFO ready queue replay the
 * task-granularity execution graph: each task starts when all its
 * parents have finished *and* its stream is free, mirroring lines
 * 9-20 of Algorithm 1 with the computation/communication-overlap
 * refinement the paper describes for gradient bucketing (Fig. 5).
 *
 * Five execution modes share that semantics bit for bit:
 *
 *   - runSimulation(): the kernel-level queue engine.  Works on any
 *     TaskGraph and detects cycles.  It serves the template-less
 *     simulator (perturbed and ablation runs) and is the oracle every
 *     other mode is tested bit-identical against.
 *   - runOpBatch(): the same queue at operator granularity, the cold
 *     path of the templated simulator.  A FIFO of (operator, kernel
 *     cursor) entries pops one kernel at a time (graph/schedule.h
 *     OpFifoWalk), so the pop order equals the kernel-level queue's,
 *     while kernels are never materialized as tasks: durations come
 *     from a per-plan slot table (GraphTemplate::retimeSlots), and K
 *     plans advance in lockstep through one walk.
 *   - runOpPair(): runOpBatch() over fast mode's two capped graphs
 *     (cap and cap + 1 micro-batches) in one forked walk.  Operator
 *     i is *shareable* when i is below both operator counts, its
 *     16-byte record and CSR child list are the same in both graphs,
 *     and every child has the same in-degree in both.  With equal
 *     root sets, every pop before the first pop of an unshareable
 *     operator (the fork F) does the same work in both walks, so the
 *     queue, reference counts, ready times, lane clocks and
 *     accumulators at F are equal.  The pair walks the cap graph to
 *     F, saves the fork frontier (graph/schedule.h OpFifoWalk),
 *     finishes it, and finishes the cap + 1 graph from the frontier:
 *     F + (|A| - F) + (|B| - F) pops instead of |A| + |B|.  On the
 *     capped MT-NLG topologies F is about 67% of the cap + 1 walk.
 *     Unequal roots give F = 0, two plain walks.
 *   - replayRuns(): run replay, the warm path.  The FIFO pop order is
 *     a pure function of the topology (durations cannot reorder a
 *     FIFO), so a RunSchedule recorded once per topology turns every
 *     later run into a pass over merged lane runs -- chains of tasks
 *     timed as one unit with no queue and no per-task ready time --
 *     plus one pop-order slot sequence per order-dependent sum, all
 *     read from the same slot tables the op FIFO uses, K plans wide.
 *   - replaySimulation() / replayBatch(): the per-task schedule
 *     replay over a ReplaySchedule and one duration per task.  No
 *     simulation path runs it; it is the reference the run replay is
 *     tested against, and what an external replica of the per-task
 *     path calls.
 */
#ifndef VTRAIN_SIM_ENGINE_H
#define VTRAIN_SIM_ENGINE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/schedule.h"
#include "graph/task_graph.h"

namespace vtrain {

/** Raw outcome of one engine run. */
struct EngineResult {
    /** Predicted single-iteration time (max over device timelines). */
    double makespan = 0.0;

    /** Per-device busy time on the compute stream, seconds. */
    std::vector<double> busy_compute;

    /** Per-device busy time on the communication stream, seconds. */
    std::vector<double> busy_comm;

    /** Total scheduled duration by task tag, seconds (sum over all
     *  devices; includes overlapped time). */
    std::array<double, kNumTaskTags> time_by_tag{};

    /** Number of tasks executed (must equal the graph size). */
    size_t executed = 0;
};

/** Scheduled interval of one task (optional trace output). */
struct TaskSpan {
    double start = 0.0;
    double end = 0.0;
};

/**
 * Runs Algorithm 1 over a task graph.
 *
 * @param graph the task-granularity execution graph.
 * @param trace when non-null, receives the scheduled [start, end)
 *              interval of every task (timeline visualization).
 */
EngineResult runSimulation(const TaskGraph &graph,
                           std::vector<TaskSpan> *trace = nullptr);

/**
 * Replays a precomputed schedule with the given durations: one linear
 * pass, bit-identical to runSimulation() over the same topology (the
 * visit order is the queue engine's pop order, so every accumulation
 * happens in the same sequence).
 *
 * @param schedule  execution order of the topology (ReplaySchedule).
 * @param durations per-task durations in *original task id* order
 *                  (the order TaskGraph::durations() uses), one per
 *                  scheduled task.
 * @param trace     like runSimulation(): spans indexed by task id.
 */
EngineResult replaySimulation(const ReplaySchedule &schedule,
                              const std::vector<double> &durations,
                              std::vector<TaskSpan> *trace = nullptr);

/**
 * Runs Algorithm 1 at operator granularity for `count` plans in
 * lockstep: one op-FIFO walk of `ops` (graph/schedule.h) whose K-wide
 * per-kernel bodies time every plan at once.  Each result is
 * bit-identical to runSimulation() over the kernel-level expansion
 * timed with the same slot table: the pop order is the same, and so
 * is every floating-point accumulation.  Fails (throws) with the
 * queue engine's deadlock message on a cyclic topology.
 *
 * @param slot_tables `count` tables of ops.num_slots durations each
 *                    (GraphTemplate::retimeSlots; not validated).
 * @param results     receives one EngineResult per table.
 */
void runOpBatch(const OpTopology &ops, const double *const *slot_tables,
                size_t count, EngineResult *results);

/**
 * runOpBatch() over two topologies timed with the same slot tables,
 * in one forked walk (see the file comment): `results_a` and
 * `results_b` are bit-identical to runOpBatch() over `a` and over
 * `b`.  Requires equal num_slots and num_devices.  Fails (throws)
 * like runOpBatch() on a cyclic topology.
 *
 * @return the pops the two walks shared (F), at most b.num_tasks.
 */
size_t runOpPair(const OpTopology &a, const OpTopology &b,
                 const double *const *slot_tables, size_t count,
                 EngineResult *results_a, EngineResult *results_b);

/**
 * Replays a run schedule for `count` plans in lockstep (see the file
 * comment and graph/schedule.h).  Each result is bit-identical to
 * runSimulation() over the kernel-level expansion timed with the
 * same slot table, and so to runOpBatch() over the topology the
 * schedule was built from.
 *
 * @param slot_tables `count` tables of runs.num_slots durations each
 *                    (GraphTemplate::retimeSlots; not validated).
 * @param results     receives one EngineResult per table.
 */
void replayRuns(const RunSchedule &runs, const double *const *slot_tables,
                size_t count, EngineResult *results);

/**
 * The chunk kernel replayBatch() runs its lockstep passes with.
 * Scalar is the portable fallback (compile-time-width chunks the
 * compiler autovectorizes at the build's baseline ISA); Avx2 is the
 * explicit 256-bit kernel (sim/replay_kernels.h), available only when
 * compiled in *and* the running CPU supports it.  Every kernel
 * produces bit-identical results — the choice is purely a throughput
 * knob, which is why the default entry points pick one automatically.
 */
enum class ReplayKernel { Scalar, Avx2 };

/** @return "scalar" or "avx2" (stable; used on /statz and in bench
 *  context blocks). */
const char *replayKernelName(ReplayKernel kernel);

/** @return true when the kernel's TU was compiled into this binary. */
bool replayKernelCompiled(ReplayKernel kernel);

/** @return true when the kernel is compiled in and the running CPU
 *  supports its ISA (util::cpuFeatures); Scalar is always usable. */
bool replayKernelUsable(ReplayKernel kernel);

/** @return the kernel auto-dispatch selects (resolved once per
 *  process; the cpuid probe is cached): AVX2 when usable, else
 *  Scalar. */
ReplayKernel activeReplayKernel();

/**
 * Simulates K duration vectors over one shared schedule in a single
 * cache-friendly pass.  The K points advance in lockstep through the
 * schedule: per position the K-wide inner loops (contiguous, branch
 * free) vectorize — explicitly via the AVX2 chunk kernel when the
 * host supports it, by autovectorization of the scalar
 * chunks otherwise — and the schedule's metadata and child arrays
 * are read once per position instead of once per point.  Results are
 * bit-identical to K independent replaySimulation() calls, under
 * every kernel.
 *
 * @param duration_sets K vectors, each in original task id order.
 * @return one EngineResult per input vector, in order.
 */
std::vector<EngineResult>
replayBatch(const ReplaySchedule &schedule,
            const std::vector<std::vector<double>> &duration_sets);

/**
 * replayBatch() pinned to one kernel (tests and benches compare
 * kernels with this; other callers use the auto overload).
 * Aborts when the kernel is not usable on this host.
 */
std::vector<EngineResult>
replayBatch(const ReplaySchedule &schedule,
            const std::vector<std::vector<double>> &duration_sets,
            ReplayKernel kernel);

/**
 * Engine-mode counters.  The simulator ticks them as it chooses an
 * execution mode per run; the serve layer aggregates one shared
 * instance across requests and reports it on GET /statz.
 */
struct EngineCounters {
    /** Single-plan warm runs: a run replay (replayRuns()) at K=1. */
    std::atomic<uint64_t> replay_runs{0};
    /** Single-plan cold runs: runSimulation() (the template-less
     *  oracle), or runOpBatch() at K=1. */
    std::atomic<uint64_t> queue_runs{0};
    /** Points of simulateIterationBatch() group passes, over the
     *  run replay or the op FIFO. */
    std::atomic<uint64_t> batched_points{0};
};

/** A point-in-time snapshot of EngineCounters. */
struct EngineStats {
    uint64_t replay_runs = 0;
    uint64_t queue_runs = 0;
    uint64_t batched_points = 0;
};

/** @return a consistent-enough snapshot (relaxed loads). */
EngineStats snapshot(const EngineCounters &counters);

} // namespace vtrain

#endif // VTRAIN_SIM_ENGINE_H
