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
 * LRU template cache by structural fingerprint and splits every
 * simulation into a cold and a warm path, bit-identical to each
 * other and to the template-less oracle:
 *
 *   - cold (template miss): build the operator graph, capture it at
 *     operator granularity, fill a slot table per plan, and run
 *     Algorithm 1 as an op-level FIFO (sim/engine.h runOpBatch) — once
 *     for a single plan, or K plans in lockstep for a batch group.  No
 *     kernel task is materialized and no replay schedule is built.
 *   - warm (template hit): expand the slot table to per-task durations
 *     and replay the template's execution-order schedule (derived on
 *     first reuse) in one linear pass, K-wide for batch groups.
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
class ThreadPool;

/**
 * Folds the options into a fingerprint stream: the described fields,
 * then the perturber by address, so the digest is canonical across
 * processes only when `perturber == nullptr`; the serve layer refuses
 * to cache (or serialize) perturbed requests for exactly this reason.
 */
void hashAppend(Hash64 &h, const SimOptions &options);

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
     * schedule-replay path bit-identical to it).  A non-null
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
     * durations, and the engine simulates all plans in lockstep — over
     * the op-level FIFO on a miss (engine.h runOpBatch), over the
     * shared replay schedule on a hit (engine.h replayBatch).  One
     * shared lookup table profiles each distinct operator once for
     * the whole group.
     *
     * Results are identical (modulo sim_wall_seconds) to calling
     * simulateIteration() per plan.  Plans must share this
     * simulator's cluster and options; when the group is not
     * batchable — mixed batchGroupKey()s, templates disabled, a
     * perturber, the non-memoized ablation, or a retime rejection —
     * the affected plans transparently fall back to the per-plan
     * path.
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

    /**
     * Optional worker pool for simulateIterationBatch(): a group's
     * per-plan retimes (measured at ~¼ of group cost, embarrassingly
     * parallel) are spread across `pool` and overlapped with the
     * engine's replay of the previous chunk.  Non-owning; null (the
     * default) re-times serially.  Results are bit-identical either
     * way — retiming is a pure function of the plan, and the shared
     * profiler table is only read concurrently (see the batch loop
     * for the prefill argument).  Safe even when the caller itself
     * runs on `pool`: the loop is cooperative (ThreadPool::startFor),
     * so progress never depends on free pool capacity.
     */
    void setRetimePool(ThreadPool *pool) { retime_pool_ = pool; }

    /** The retime pool (null = serial; see setRetimePool). */
    ThreadPool *retimePool() const { return retime_pool_; }

  private:
    struct RunOutcome {
        EngineResult engine;
        size_t num_operators = 0;
        size_t num_tasks = 0;
        size_t distinct_profiled = 0;
        size_t profiler_calls = 0;
    };

    /**
     * Builds (or re-times) and simulates one iteration with n_micro
     * micro-batches.  The lookup table is owned by the caller so fast
     * mode's two capped runs profile each distinct operator once.
     */
    RunOutcome runOnce(const ModelConfig &model,
                       const ParallelConfig &parallel, int n_micro,
                       OperatorToTaskTable &table) const;

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
     * One pass of simulateIterationBatch() over a freshly captured
     * template: a slot table per plan, then one K-wide op-FIFO walk.
     * Plans whose retime fails are marked in `fell_back`; the others
     * get their engine result in `out`.
     */
    void opGroupPass(const GraphTemplate &tmpl,
                     const std::vector<ParallelConfig> &plans,
                     OperatorToTaskTable &table, std::vector<char> &fell_back,
                     std::vector<RunOutcome> &out) const;

    /** opGroupPass() for a cached template: chunked per-task retimes
     *  (on the retime pool when set) and K-wide schedule replays. */
    void replayGroupPass(const GraphTemplate &tmpl,
                         const std::vector<ParallelConfig> &plans,
                         OperatorToTaskTable &table,
                         std::vector<char> &fell_back,
                         std::vector<RunOutcome> &out) const;

    /**
     * The shared post-processing of simulateIteration() and the
     * batched path: extrapolates fast mode's affine tail when `next`
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
    ThreadPool *retime_pool_ = nullptr; //!< non-owning; may be null
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
