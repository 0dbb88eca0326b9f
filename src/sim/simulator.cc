#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <iterator>

#include "graph/template.h"
#include "profiling/synthetic_profiler.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "util/units.h"

namespace vtrain {

namespace {

/**
 * One simulator phase, timed two ways at once: a trace span
 * ("sim.<label>") and a sample of the vtrain_sim_phase_seconds
 * histogram series labelled phase=<label>.
 */
class Phase
{
  public:
    enum Id { GraphBuild, TemplateCapture, TemplateRetime, Replay, QueueRun };

    explicit Phase(Id id) : span_(kSpans[id]), timer_(histograms()[id]) {}

  private:
    static constexpr const char *kSpans[] = {
        "sim.graph_build", "sim.template_capture", "sim.template_retime",
        "sim.replay", "sim.queue_run"};
    static constexpr const char *kLabels[] = {
        "graph_build", "template_capture", "template_retime", "replay",
        "queue_run"};
    static constexpr size_t kCount = std::size(kLabels);

    /** Resolved once per process (never per Simulator -- benches
     *  construct thousands) into the global registry. */
    static const std::array<util::Histogram *, kCount> &
    histograms()
    {
        static const std::array<util::Histogram *, kCount> series = [] {
            util::MetricRegistry &r = util::MetricRegistry::global();
            std::array<util::Histogram *, kCount> h{};
            for (size_t i = 0; i < kCount; ++i)
                h[i] = r.histogram("vtrain_sim_phase_seconds",
                                   {{"phase", kLabels[i]}},
                                   kSimPhaseSecondsHelp);
            return h;
        }();
        return series;
    }

    util::TraceSpan span_;
    util::ScopedLatency timer_;
};

/**
 * The template gate: re-timing needs determinism (no perturber) and
 * the memoized table (the non-memoized ablation deliberately pays for
 * re-profiling every node, which re-timing would skip).
 */
bool
mayUseTemplates(const SimOptions &options)
{
    return options.memoize_profiles && options.perturber == nullptr;
}

/**
 * The micro-batch counts a plan simulates: its own count, or fast
 * mode's capped pair, whose difference extrapolates the affine tail.
 */
struct MicroBatchRuns {
    int n_micro = 0; //!< the plan's own count
    /** 2p+2 covers warmup, at least one full steady-state period per
     *  stage, and drain for both schedules. */
    int cap = 0;
    bool fast = false;

    int passes() const { return fast ? 2 : 1; }
    int simulated(int pass) const { return fast ? cap + pass : n_micro; }
};

MicroBatchRuns
microBatchRuns(const ParallelConfig &parallel, const SimOptions &options)
{
    MicroBatchRuns runs;
    runs.n_micro = parallel.numMicroBatches();
    runs.cap = std::max(2 * parallel.pipeline + 2, 4);
    runs.fast = options.fast_mode && runs.n_micro > runs.cap + 1;
    return runs;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

void
hashAppend(Hash64 &h, const SimOptions &options)
{
    hashFields(h, options);
    h.mix(static_cast<uint64_t>(
        reinterpret_cast<uintptr_t>(options.perturber)));
}

Simulator::Simulator(ClusterSpec cluster, SimOptions options)
    : Simulator(std::move(cluster), options,
                std::make_shared<GraphTemplateCache>())
{
}

Simulator::Simulator(ClusterSpec cluster, SimOptions options,
                     std::shared_ptr<GraphTemplateCache> templates,
                     std::shared_ptr<EngineCounters> counters)
    : cluster_(std::move(cluster)), options_(options), comm_(cluster_),
      templates_(std::move(templates)), counters_(std::move(counters))
{
    if (!counters_)
        counters_ = std::make_shared<EngineCounters>();
}

OpGraph
Simulator::buildOps(const ModelConfig &model, const ParallelConfig &parallel,
                    int n_micro) const
{
    GraphBuilder builder(model, parallel, cluster_, comm_);
    BuildOptions build_options;
    build_options.n_micro_override = n_micro;
    Phase phase(Phase::GraphBuild);
    return builder.build(build_options);
}

std::shared_ptr<const GraphTemplate>
Simulator::captureTemplate(const ModelConfig &model,
                           const ParallelConfig &parallel, int n_micro,
                           uint64_t fingerprint,
                           OperatorToTaskTable &table) const
{
    const OpGraph ops = buildOps(model, parallel, n_micro);
    Phase phase(Phase::TemplateCapture);
    ExpandOptions expand_options;
    expand_options.collapse_operators = options_.collapse_operators;
    auto tmpl = GraphTemplate::capture(ops, table, expand_options, nullptr);
    templates_->put(fingerprint, tmpl);
    return tmpl;
}

Simulator::RunOutcome
Simulator::runOracle(const ModelConfig &model, const ParallelConfig &parallel,
                     int n_micro, OperatorToTaskTable &table) const
{
    const OpGraph ops = buildOps(model, parallel, n_micro);
    ExpandOptions expand_options;
    expand_options.collapse_operators = options_.collapse_operators;
    expand_options.perturber = options_.perturber;
    TaskGraph tasks;
    {
        Phase phase(Phase::TemplateCapture);
        tasks = TaskGraph::expand(ops, table, expand_options);
    }
    RunOutcome outcome;
    {
        Phase phase(Phase::QueueRun);
        outcome.engine = runSimulation(tasks);
    }
    counters_->queue_runs.fetch_add(1, std::memory_order_relaxed);
    outcome.num_operators = ops.numNodes();
    outcome.num_tasks = tasks.numTasks();
    outcome.distinct_profiled = table.numEntries();
    outcome.profiler_calls = table.numProfilerCalls();
    return outcome;
}

SimulationResult
Simulator::assembleResult(const ModelConfig &model,
                          const ParallelConfig &parallel,
                          const RunOutcome &base, const RunOutcome *next,
                          int n_micro, int cap) const
{
    SimulationResult result;
    result.total_micro_batches = n_micro;

    if (next) {
        const double slope =
            next->engine.makespan - base.engine.makespan;
        VTRAIN_CHECK(slope >= 0.0,
                     "iteration time must grow with micro-batches");
        result.iteration_seconds =
            base.engine.makespan +
            slope * static_cast<double>(n_micro - cap);
        result.extrapolated = true;
        result.simulated_micro_batches = cap;
    } else {
        result.iteration_seconds = base.engine.makespan;
        result.extrapolated = false;
        result.simulated_micro_batches = n_micro;
    }
    result.num_operators = base.num_operators;
    result.num_tasks = base.num_tasks;
    result.distinct_operators_profiled = base.distinct_profiled;
    result.profiler_calls = base.profiler_calls;
    result.time_by_tag = base.engine.time_by_tag;
    const double busiest =
        *std::max_element(base.engine.busy_compute.begin(),
                          base.engine.busy_compute.end());
    result.bubble_fraction = 1.0 - busiest / base.engine.makespan;

    result.model_flops =
        model.modelFlops(parallel.tokensPerIteration(model));
    const double peak =
        static_cast<double>(parallel.totalGpus()) *
        cluster_.node.gpu.peakFlops(parallel.precision);
    result.utilization =
        result.model_flops / (result.iteration_seconds * peak);
    return result;
}

SimulationResult
Simulator::simulateIteration(const ModelConfig &model,
                             const ParallelConfig &parallel)
{
    const auto wall_start = std::chrono::steady_clock::now();
    model.validate();
    parallel.validate(model, cluster_);

    SimulationResult result;
    if (templates_ != nullptr && mayUseTemplates(options_)) {
        result = std::move(simulateGroup(model, {&parallel, 1},
                                         /*batch=*/false)
                               .front());
    } else {
        SyntheticProfiler profiler(cluster_.node.gpu, parallel.precision,
                                   options_.attention);
        OperatorToTaskTable table(profiler, options_.memoize_profiles);
        const MicroBatchRuns runs = microBatchRuns(parallel, options_);
        const RunOutcome base =
            runOracle(model, parallel, runs.simulated(0), table);
        RunOutcome next;
        if (runs.fast)
            next = runOracle(model, parallel, runs.simulated(1), table);
        result = assembleResult(model, parallel, base,
                                runs.fast ? &next : nullptr, runs.n_micro,
                                runs.cap);
    }
    result.sim_wall_seconds = secondsSince(wall_start);
    return result;
}

uint64_t
batchGroupKey(const ModelConfig &model, const ParallelConfig &parallel,
              const ClusterSpec &cluster, const SimOptions &options)
{
    // The batched path needs the simulator's template gate and a
    // well-formed enough plan to derive the micro-batch count.
    if (!mayUseTemplates(options))
        return 0;
    if (parallel.data <= 0 || parallel.micro_batch_size <= 0 ||
        parallel.pipeline <= 0)
        return 0;
    const MicroBatchRuns runs = microBatchRuns(parallel, options);
    // Fast-mode points simulate the capped prefix regardless of their
    // own n_micro, so any fast point of a structure groups; exact
    // points must agree on the simulated count itself.
    const int n_sim = runs.simulated(0);

    Hash64 h;
    h.mix(std::string_view("vtrain.batch-group.v1"));
    hashAppend(h, options);
    hashAppend(h, cluster);
    hashAppend(h, model);
    // Precision selects the profiler, which the group shares; it is
    // deliberately absent from the structural fingerprint.
    h.mix(static_cast<int64_t>(parallel.precision));
    h.mix(runs.fast).mix(int64_t{n_sim});
    h.mix(structuralFingerprint(model, parallel, n_sim,
                                options.collapse_operators,
                                options.attention));
    return h.digest();
}

bool
Simulator::retimePlans(const GraphTemplate &tmpl,
                       std::span<const ParallelConfig> plans,
                       OperatorToTaskTable &table,
                       std::vector<std::vector<double>> &slots) const
{
    Phase phase(Phase::TemplateRetime);
    for (size_t j = 0; j < plans.size(); ++j)
        if (!tmpl.retimeSlots(table, plans[j], cluster_, comm_, &slots[j]))
            return false;
    return true;
}

std::vector<SimulationResult>
Simulator::simulateGroup(const ModelConfig &model,
                         std::span<const ParallelConfig> plans,
                         bool batch) const
{
    const size_t n = plans.size();
    // One profiler table for the whole group: every plan re-times the
    // same interned descriptors, so each distinct operator is
    // profiled once for all K points.
    SyntheticProfiler profiler(cluster_.node.gpu, plans[0].precision,
                               options_.attention);
    OperatorToTaskTable table(profiler, options_.memoize_profiles);

    const MicroBatchRuns runs = microBatchRuns(plans[0], options_);
    std::vector<RunOutcome> base(n);
    std::vector<RunOutcome> next(runs.fast ? n : 0);
    // Per pass: the template and its slot tables.  A slot table is a
    // few dozen doubles, so the whole group retimes up front and the
    // engine times all K plans in one pass.
    std::shared_ptr<const GraphTemplate> tmpls[2];
    bool hits[2] = {};
    std::vector<std::vector<double>> slots[2];
    for (int pass = 0; pass < runs.passes(); ++pass) {
        const int n_micro = runs.simulated(pass);
        const uint64_t fp = structuralFingerprint(
            model, plans[0], n_micro, options_.collapse_operators,
            options_.attention);
        std::shared_ptr<const GraphTemplate> &tmpl = tmpls[pass];
        slots[pass].resize(n);
        tmpl = templates_->get(fp);
        hits[pass] = tmpl && retimePlans(*tmpl, plans, table, slots[pass]);
        if (!hits[pass]) {
            // A miss, or a table that disagrees with the cached
            // template: capture at operator granularity.
            tmpl = captureTemplate(model, plans[0], n_micro, fp, table);
            VTRAIN_CHECK(retimePlans(*tmpl, plans, table, slots[pass]),
                         "a fresh capture must retime with its own table");
        }

        // Table statistics after this pass's (re)timing work.
        for (RunOutcome &outcome : pass == 0 ? base : next) {
            outcome.num_operators = tmpl->numOperators();
            outcome.num_tasks = tmpl->numTasks();
            outcome.distinct_profiled = table.numEntries();
            outcome.profiler_calls = table.numProfilerCalls();
        }
    }

    std::vector<EngineResult> engines[2] = {
        std::vector<EngineResult>(n),
        std::vector<EngineResult>(runs.fast ? n : 0)};
    std::vector<const double *> slot_ptrs(n);
    const auto tables = [&](int pass) {
        for (size_t j = 0; j < n; ++j)
            slot_ptrs[j] = slots[pass][j].data();
        return slot_ptrs.data();
    };
    const auto tick = [&](std::atomic<uint64_t> &single_runs) {
        if (batch)
            counters_->batched_points.fetch_add(n,
                                                std::memory_order_relaxed);
        else
            single_runs.fetch_add(1, std::memory_order_relaxed);
    };
    if (runs.fast && !(hits[0] && hits[1]) && slots[0] == slots[1]) {
        // A cold fast-mode pair: the cap and cap + 1 graphs walk their
        // common prefix once (engine.h runOpPair).
        Phase phase(Phase::QueueRun);
        runOpPair(tmpls[0]->ops(), tmpls[1]->ops(), tables(0), n,
                  engines[0].data(), engines[1].data());
        tick(counters_->queue_runs);
        tick(counters_->queue_runs);
    } else {
        for (int pass = 0; pass < runs.passes(); ++pass) {
            // A hit replays the template's run schedule, derived on
            // its first reuse; a miss walks the op FIFO, so a sweep
            // that thrashes the cache with single-use topologies never
            // pays for a schedule.
            const RunSchedule *schedule =
                hits[pass] ? tmpls[pass]->runs() : nullptr;
            if (schedule) {
                Phase phase(Phase::Replay);
                replayRuns(*schedule, tables(pass), n, engines[pass].data());
            } else {
                Phase phase(Phase::QueueRun);
                runOpBatch(tmpls[pass]->ops(), tables(pass), n,
                           engines[pass].data());
            }
            tick(schedule ? counters_->replay_runs : counters_->queue_runs);
        }
    }
    for (size_t j = 0; j < n; ++j) {
        base[j].engine = std::move(engines[0][j]);
        if (runs.fast)
            next[j].engine = std::move(engines[1][j]);
    }

    std::vector<SimulationResult> results(n);
    for (size_t j = 0; j < n; ++j)
        results[j] = assembleResult(model, plans[j], base[j],
                                    runs.fast ? &next[j] : nullptr,
                                    plans[j].numMicroBatches(), runs.cap);
    return results;
}

std::vector<SimulationResult>
Simulator::simulateIterationBatch(const ModelConfig &model,
                                  const std::vector<ParallelConfig> &plans)
{
    const auto wall_start = std::chrono::steady_clock::now();
    if (plans.empty())
        return {};

    // The group must be uniform: one key, shared by every plan.  A
    // mixed or unbatchable group degrades to the per-plan path
    // (identical results, no shared work).
    const uint64_t key =
        batchGroupKey(model, plans[0], cluster_, options_);
    bool batchable = key != 0 && templates_ != nullptr;
    for (size_t i = 1; batchable && i < plans.size(); ++i)
        batchable =
            batchGroupKey(model, plans[i], cluster_, options_) == key;
    std::vector<SimulationResult> results;
    if (!batchable) {
        for (const ParallelConfig &plan : plans)
            results.push_back(simulateIteration(model, plan));
        return results;
    }

    model.validate();
    for (const ParallelConfig &plan : plans)
        plan.validate(model, cluster_);
    results = simulateGroup(model, plans, /*batch=*/true);

    // The points share one wall clock: report the amortized per-point
    // cost so numbers stay comparable across entry points.
    const double amortized =
        secondsSince(wall_start) / static_cast<double>(plans.size());
    for (SimulationResult &result : results)
        result.sim_wall_seconds = amortized;
    return results;
}

TrainingProjection
Simulator::projectTraining(const ModelConfig &model,
                           const ParallelConfig &parallel,
                           double total_tokens)
{
    const SimulationResult iter = simulateIteration(model, parallel);
    TrainingProjection proj;
    proj.iteration_seconds = iter.iteration_seconds;
    proj.num_iterations =
        std::ceil(total_tokens / parallel.tokensPerIteration(model));
    proj.total_seconds = proj.iteration_seconds * proj.num_iterations;
    proj.total_days = proj.total_seconds / kSecPerDay;
    proj.utilization = iter.utilization;
    return proj;
}

} // namespace vtrain
