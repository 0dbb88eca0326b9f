/**
 * @file
 * Build-once / retime-many graph templates.
 *
 * The paper's central observation is that training iterations are
 * statically determined and repetitive.  The same holds one level up:
 * across a design-space sweep, most simulation points share the exact
 * *structure* of their task graph and differ only in the durations
 * that kernels and collectives are assigned.  A GraphTemplate
 * captures that structure at operator granularity, in O(operators):
 *
 *   - the OpTopology (graph/schedule.h): one packed record per
 *     operator (lanes, tag, kernel count, slot offset), the operator
 *     CSR and in-degrees;
 *   - a structural slot map: one slot per (interned descriptor,
 *     kernel index) — one per descriptor when operators are collapsed
 *     — and one per distinct (comm kind, bytes) payload.  A capped
 *     MT-NLG topology of 1.18M kernel tasks has 68 slots.
 *
 * retimeSlots() fills a slot table for a new (plan, cluster) pair in
 * O(slots): one table lookup per descriptor and one latency-model
 * call per payload.  Slots are structural, not values, so two kernels
 * that happen to share a duration under one plan never share a slot
 * another plan would split.
 *
 * Templates are keyed by structuralFingerprint(), a hash of exactly
 * the inputs the topology depends on: model shape, the structural
 * parallel-plan fields, the simulated micro-batch count and the
 * expansion mode.  Kernel durations, communication latencies, the
 * cluster, and the data-parallel degree (beyond d>1 and the ZeRO
 * sharding it implies) are deliberately *not* part of the key, so
 * sweeps that vary cluster/comm parameters, global batch size (under
 * fast mode's cap) or only the DP degree reuse the cached topology.
 *
 * Retiming is exact, not approximate: a re-timed template simulates
 * bit-identically to a from-scratch build of the same request
 * (golden- and differential-tested).  A retime whose lookup table
 * disagrees with the recorded kernel counts (a fingerprint collision,
 * or a profiler whose decomposition changed) fails gracefully and the
 * caller rebuilds from scratch.
 *
 * Both consumers of a template read only slot tables:
 *
 *   - a cold simulation (the capture's own plan, or a K-wide group of
 *     plans) runs the op-level FIFO (engine.h runOpBatch, or
 *     runOpPair for fast mode's two graphs) over the OpTopology,
 *     never expanding kernels;
 *   - a warm simulation replays runs() (engine.h replayRuns), the
 *     run-compressed schedule derived from one untimed op-FIFO walk
 *     on the template's first reuse.  A serve-style miss therefore
 *     costs O(slots) to retime plus one pass over lane runs.
 *
 * retimeDurations() and schedule() expand the same data to one
 * duration or schedule entry per kernel task.  They exist for the
 * per-task reference replay (tests, external replicas) and no
 * simulation path calls them.  The kernel-level oracle is
 * TaskGraph::expand of a fresh build, not anything a template holds.
 *
 * The byte budget (approxBytes()) is fixed at capture.  It counts the
 * operator structure plus runs() at one run per operator, 6.4-6.9
 * bytes per task on the capped GPT-3 and MT-NLG topologies.  A
 * topology whose runs outnumber its operators keeps no run schedule
 * and replays through the op FIFO, so the budget never under-counts.
 */
#ifndef VTRAIN_GRAPH_TEMPLATE_H
#define VTRAIN_GRAPH_TEMPLATE_H

#include <cstdint>
#include <memory>
#include <mutex> // std::once_flag (annotation-free by design; see below)
#include <utility>
#include <vector>

#include "comm/comm_model.h"
#include "graph/schedule.h"
#include "graph/task_graph.h"
#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"
#include "profiling/synthetic_profiler.h"
#include "util/lru_cache.h"

namespace vtrain {

/**
 * @return the 64-bit structural fingerprint of the task-graph
 * topology for (model, parallel, n_micro micro-batches), expanded
 * with `collapse_operators` under `attention`.
 *
 * Includes every input the topology depends on and nothing that only
 * affects durations.  In particular the model *name*, the precision,
 * the cluster and the DP degree (beyond d>1, plus d itself only under
 * ZeRO, which shards the weight-update descriptor by d) are excluded.
 */
uint64_t structuralFingerprint(const ModelConfig &model,
                               const ParallelConfig &parallel, int n_micro,
                               bool collapse_operators,
                               AttentionImpl attention);

/** Captured task-graph structure; see file comment. */
class GraphTemplate
{
  public:
    /**
     * Captures the operator-level structure of `ops` expanded via
     * `table` under `options`.  When `expanded` is non-null it also
     * receives the fully expanded, timed kernel-level graph; when null
     * nothing is expanded (the simulator's path).  The expansion must
     * be unperturbed (perturbers are per-instance and process-local;
     * the simulator never routes them through templates).
     */
    static std::shared_ptr<const GraphTemplate>
    capture(const OpGraph &ops, OperatorToTaskTable &table,
            const ExpandOptions &options, TaskGraph *expanded);

    /**
     * Fills the slot table for (parallel, cluster) in O(slots): kernel
     * durations come from `table`, communication latencies are
     * re-derived from the recorded payloads via `comm`.  @return true
     * and assigns `*out` (ops().num_slots entries) on success; false
     * (leaving `out` untouched) when `table`'s kernel decomposition
     * disagrees with the captured structure, in which case the caller
     * must rebuild from scratch.  The op-level FIFO consumes exactly
     * this (engine.h runOpBatch).
     */
    bool retimeSlots(OperatorToTaskTable &table,
                     const ParallelConfig &parallel,
                     const ClusterSpec &cluster, const CommModel &comm,
                     std::vector<double> *out) const;

    /**
     * The run-compressed replay schedule (graph/schedule.h), derived
     * on first use from one untimed op-FIFO walk (cold simulations
     * never need it) and shared by every later replay of this
     * template, across threads.  The warm path replays it against
     * retimeSlots() tables (engine.h replayRuns).  Null when the
     * topology overflows the schedule's narrow ids or its run count
     * exceeds the operator count approxBytes() budgets for; the op
     * FIFO then serves the warm path too.
     */
    const RunSchedule *runs() const;

    /**
     * retimeSlots() expanded to one duration per kernel task, in task
     * id order (the order TaskGraph::expand numbers tasks in): the
     * input of the kernel-level reference replay (engine.h
     * replaySimulation over schedule()).
     */
    bool retimeDurations(OperatorToTaskTable &table,
                         const ParallelConfig &parallel,
                         const ClusterSpec &cluster,
                         const CommModel &comm,
                         std::vector<double> *out) const;

    /**
     * The kernel-level execution-order schedule, derived on first use
     * like runs().  No simulation path replays it: it is the
     * reference runs() is tested against, and what an external
     * replica of the per-task replay consumes.  Not counted by
     * approxBytes().
     */
    const ReplaySchedule &schedule() const;

    /** The operator-level structure the op FIFO runs on. */
    const OpTopology &ops() const { return ops_; }

    size_t numOperators() const { return ops_.numOps(); }
    size_t numTasks() const { return ops_.num_tasks; }

    /** Approximate resident size, for the cache's byte budget: the
     *  operator structure plus the largest runs() this template keeps
     *  (one run per operator; RunSchedule::bytesFor).  Fixed at
     *  capture, so cache accounting does not shift when the run
     *  schedule materializes, and never below what it allocates. */
    size_t approxBytes() const { return bytes_; }

  private:
    /** A (comm kind, per-GPU bytes) payload: one slot. */
    struct CommPayload {
        CommKind kind;
        double bytes;
    };

    GraphTemplate() = default;

    OpTopology ops_;
    std::vector<OpDesc> descs_; //!< interned descriptors, by id
    /** Slots of descriptor d: [desc_slot_[d], desc_slot_[d+1]). */
    std::vector<int32_t> desc_slot_;
    /** Slot desc_slot_.back() + i holds comm_payloads_[i]. */
    std::vector<CommPayload> comm_payloads_;
    bool collapse_ = false;
    size_t bytes_ = 0;
    /** Most runs runs() keeps; 0 when the topology is not
     *  representable (RunSchedule::representable). */
    size_t run_budget_ = 0;

    // call_once publication, not a mutex: std::once_flag needs no
    // thread-safety annotations (call_once's own synchronization
    // guarantees each schedule is written exactly once, before any
    // read through the returned pointer or reference), and lint.py's
    // naked-mutex rule deliberately leaves once_flag alone.
    mutable std::once_flag runs_once_;
    mutable std::shared_ptr<const RunSchedule> runs_;
    mutable std::once_flag schedule_once_;
    mutable std::shared_ptr<const ReplaySchedule> schedule_;
};

/** Byte cost of a cached template: its approxBytes(). */
inline size_t
cacheEntryBytes(const std::shared_ptr<const GraphTemplate> &tmpl)
{
    return tmpl->approxBytes();
}

/**
 * The graph-template cache, keyed by structural fingerprint: the
 * policy is util::LruCache's, over one shard so the byte budget is one
 * global figure (a single MT-NLG p=105 template is larger than a
 * sixteenth of it).  Defaults: 32 entries and 128 MiB.  A template is
 * charged ~13 bytes per task (its operator arrays plus a run-schedule
 * budget) and holds about that much whether or not it is ever reused,
 * so the byte budget caps what a sweep of single-use topologies keeps
 * alive: 11 templates on the MT-NLG design-space sweep (150-195 MB
 * peak RSS across seeds), while the serve hot set of 24 templates is
 * charged 28 MB.
 */
class GraphTemplateCache
    : public util::LruCache<std::shared_ptr<const GraphTemplate>, 1, 32,
                            128u << 20>
{
  public:
    using LruCache::LruCache;
    using LruCache::get;

    /** @return the template for `fingerprint`, or nullptr (counted). */
    std::shared_ptr<const GraphTemplate> get(uint64_t fingerprint)
    {
        std::shared_ptr<const GraphTemplate> tmpl;
        get(fingerprint, &tmpl);
        return tmpl;
    }
};

} // namespace vtrain

#endif // VTRAIN_GRAPH_TEMPLATE_H
