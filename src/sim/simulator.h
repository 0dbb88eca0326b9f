/**
 * @file
 * The vTrain simulator facade (paper Fig. 4, steps 1-5).
 *
 * Ties the pipeline together: input description -> operator graph ->
 * operator-to-task lookup table -> task graph -> Algorithm 1 -> the
 * predicted single-iteration training time, plus end-to-end training
 * time and utilization projections.
 *
 * Fast mode: the paper's key structural observation is that training
 * iterations are statically determined and repetitive.  Beyond the
 * pipeline warmup/drain, every additional micro-batch adds a constant
 * steady-state period, so the iteration time is affine in the
 * micro-batch count.  Fast mode simulates two capped micro-batch
 * counts (2p+2 and 2p+3) exactly and extrapolates the affine tail;
 * exact and fast mode agree to floating-point tolerance (covered by
 * tests), while design-space sweeps run orders of magnitude faster.
 *
 * Build-once / retime-many: the task-graph topology depends only on
 * structural inputs (see graph/template.h).  The simulator keys an
 * LRU template cache by structural fingerprint and runs every
 * templated simulation — one plan, or a group of K plans that share
 * a topology — through one routine, bit-identical to the
 * template-less oracle.  Per simulated micro-batch count it takes one
 * of two outcomes:
 *
 *   - miss: build the operator graph, capture it at operator
 *     granularity, fill a slot table per plan, and run Algorithm 1 as
 *     one op-level FIFO walk with the K plans in lockstep (sim/engine.h
 *     runOpBatch).  No kernel task is materialized and no replay
 *     schedule is built.
 *   - hit: fill a slot table per plan (O(slots)) and replay the
 *     template's run schedule (graph/schedule.h RunSchedule, derived
 *     on first reuse) K plans wide (sim/engine.h replayRuns).  Nothing
 *     per task is built per plan.  A retime the cached template
 *     rejects (fingerprint collision) recaptures and takes the miss
 *     outcome instead; a template that keeps no run schedule walks
 *     the op FIFO.
 *
 * The cache can be shared across Simulator instances (the serve layer
 * passes one cache to every request) and is skipped for perturbed or
 * non-memoized (ablation) runs, which — like a Simulator constructed
 * without a cache — expand every operator into kernel tasks and run
 * the kernel-level queue engine, the golden reference.
 */
#ifndef VTRAIN_SIM_SIMULATOR_H
#define VTRAIN_SIM_SIMULATOR_H

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "comm/comm_model.h"
#include "graph/builder.h"
#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"
#include "profiling/synthetic_profiler.h"
#include "sim/engine.h"
#include "sim/result.h"

namespace vtrain {

/** Simulator-level options. */
struct SimOptions {
    /** Enable affine micro-batch extrapolation (see file comment). */
    bool fast_mode = true;

    /** Disable the necessary-operator memoization (ablation only). */
    bool memoize_profiles = true;

    /** Collapse operator kernel chains to single tasks (ablation). */
    bool collapse_operators = false;

    /** Attention-kernel implementation of the modelled framework. */
    AttentionImpl attention = AttentionImpl::Megatron;

    /** Optional duration perturbation (the testbed surrogate). */
    const Perturber *perturber = nullptr;

    /** Pointer comparison for `perturber`: same object, same options. */
    bool operator==(const SimOptions &) const = default;
};

/**
 * SimOptions' wire keys and fingerprint order (see util/hash.h).  The
 * perturber is process-local: never on the wire, hashed by
 * hashAppend() below.
 */
template <typename Visit>
void
fields(Visit &&visit, const SimOptions *)
{
    visit("fast_mode", &SimOptions::fast_mode);
    visit("memoize_profiles", &SimOptions::memoize_profiles);
    visit("collapse_operators", &SimOptions::collapse_operators);
    visit("attention", &SimOptions::attention);
}

class GraphTemplate;
class GraphTemplateCache;
class OperatorToTaskTable;

/**
 * Folds the options into a fingerprint stream: the described fields,
 * then the perturber by address, so the digest is canonical across
 * processes only when `perturber == nullptr`; the serve layer refuses
 * to cache (or serialize) perturbed requests for exactly this reason.
 */
void hashAppend(Hash64 &h, const SimOptions &options);

/** Help text of the vtrain_sim_phase_seconds histogram family: one
 *  series per simulator phase (label phase=<name>). */
inline constexpr std::string_view kSimPhaseSecondsHelp =
    "Simulator phase latency: graph assembly, template capture/expand, "
    "retime, schedule replay, and the event-queue engine (kernel- or "
    "operator-level).";

/** End-to-end training projection for a fixed token budget. */
struct TrainingProjection {
    double iteration_seconds = 0.0;
    double num_iterations = 0.0;
    double total_seconds = 0.0;
    double total_days = 0.0;
    double utilization = 0.0;
};

/** The profiling-driven LLM training-time simulator. */
class Simulator
{
  public:
    /** Simulator with a private graph-template cache. */
    explicit Simulator(ClusterSpec cluster, SimOptions options = {});

    /**
     * Simulator sharing `templates` with other instances (the serve
     * layer passes one cache to every per-request Simulator).  A null
     * cache disables the template path entirely: every simulation
     * builds its graphs from scratch and replays them through the
     * queue engine (golden tests use this to check the template +
     * run-replay path bit-identical to it).  A non-null
     * `counters` shares engine-mode counters the same way (the serve
     * layer reports them on /statz); null keeps private counters.
     */
    Simulator(ClusterSpec cluster, SimOptions options,
              std::shared_ptr<GraphTemplateCache> templates,
              std::shared_ptr<EngineCounters> counters = nullptr);

    /** Predicts the single-iteration training time of a plan. */
    SimulationResult simulateIteration(const ModelConfig &model,
                                       const ParallelConfig &parallel);

    /**
     * Evaluates a structurally uniform group of plans in one batched
     * pass: the topology is captured (or fetched) once per simulated
     * micro-batch count, each plan contributes only its re-timed
     * durations, and the engine simulates all plans in lockstep, over
     * the op-level FIFO on a miss and over the shared run schedule
     * on a hit (see the file comment).  One shared lookup table
     * profiles each distinct operator once for the whole group.
     *
     * Results are identical (modulo sim_wall_seconds, which reports
     * the group's amortized per-plan cost) to calling
     * simulateIteration() per plan, which is the same routine with a
     * group of one.  Plans must share this simulator's cluster and
     * options; a group that is not batchable — mixed batchGroupKey()s,
     * templates disabled, a perturber, or the non-memoized ablation --
     * is simulated plan by plan.
     */
    std::vector<SimulationResult>
    simulateIterationBatch(const ModelConfig &model,
                           const std::vector<ParallelConfig> &plans);

    /**
     * Projects end-to-end wall-clock training time: iteration time
     * times the iteration count needed to consume `total_tokens`
     * (Sec. III-E).
     */
    TrainingProjection projectTraining(const ModelConfig &model,
                                       const ParallelConfig &parallel,
                                       double total_tokens);

    const ClusterSpec &cluster() const { return cluster_; }
    const CommModel &commModel() const { return comm_; }
    const SimOptions &options() const { return options_; }

    /** The graph-template cache (may be null; see constructors). */
    const std::shared_ptr<GraphTemplateCache> &templateCache() const
    {
        return templates_;
    }

    /** The engine-mode counters (never null; see constructors). */
    const std::shared_ptr<EngineCounters> &engineCounters() const
    {
        return counters_;
    }

  private:
    struct RunOutcome {
        EngineResult engine;
        size_t num_operators = 0;
        size_t num_tasks = 0;
        size_t distinct_profiled = 0;
        size_t profiler_calls = 0;
    };

    /**
     * The kernel-level oracle for one iteration with n_micro
     * micro-batches: expand every operator into tasks and run the
     * queue engine.  The lookup table is owned by the caller so fast
     * mode's two capped runs profile each distinct operator once.
     */
    RunOutcome runOracle(const ModelConfig &model,
                         const ParallelConfig &parallel, int n_micro,
                         OperatorToTaskTable &table) const;

    /**
     * The templated path for validated plans sharing one batch group
     * (see the file comment).  `batch` names the entry point, which
     * picks the counter a point ticks: batched_points, or replay_runs /
     * queue_runs per single-plan pass.  Leaves sim_wall_seconds to the
     * caller.
     */
    std::vector<SimulationResult>
    simulateGroup(const ModelConfig &model,
                  std::span<const ParallelConfig> plans, bool batch) const;

    /** Builds the operator graph of (model, parallel) with n_micro
     *  micro-batches. */
    OpGraph buildOps(const ModelConfig &model,
                     const ParallelConfig &parallel, int n_micro) const;

    /** buildOps(), captured and cached under `fingerprint`. */
    std::shared_ptr<const GraphTemplate>
    captureTemplate(const ModelConfig &model, const ParallelConfig &parallel,
                    int n_micro, uint64_t fingerprint,
                    OperatorToTaskTable &table) const;

    /**
     * Fills `slots[j]` with plan j's slot table over `tmpl`.  @return
     * false, with `slots` partly written, when `tmpl` rejects a
     * retime.
     */
    bool retimePlans(const GraphTemplate &tmpl,
                     std::span<const ParallelConfig> plans,
                     OperatorToTaskTable &table,
                     std::vector<std::vector<double>> &slots) const;

    /**
     * The shared post-processing of the oracle and the templated
     * path: extrapolates fast mode's affine tail when `next`
     * is non-null, then fills utilization and the projection fields.
     * Never touches sim_wall_seconds.
     */
    SimulationResult assembleResult(const ModelConfig &model,
                                    const ParallelConfig &parallel,
                                    const RunOutcome &base,
                                    const RunOutcome *next, int n_micro,
                                    int cap) const;

    ClusterSpec cluster_;
    SimOptions options_;
    CommModel comm_;
    std::shared_ptr<GraphTemplateCache> templates_;
    std::shared_ptr<EngineCounters> counters_;
};

/**
 * @return the key under which a (model, plan, cluster, options) point
 * may share one batched replay group (Simulator::simulateIterationBatch):
 * two points with equal keys simulate the same micro-batch counts over
 * the same task-graph topology with one shared profiler table, and
 * differ only in their re-timed durations.  Returns 0 when the point
 * is not batchable (perturbed, or the non-memoized ablation).  The
 * serve layer groups evaluateBatch() requests by this key.
 */
uint64_t batchGroupKey(const ModelConfig &model,
                       const ParallelConfig &parallel,
                       const ClusterSpec &cluster,
                       const SimOptions &options);

} // namespace vtrain

#endif // VTRAIN_SIM_SIMULATOR_H
