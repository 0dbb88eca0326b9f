#include "replica.h"

#include <algorithm>
#include <unordered_map>

#include "comm/comm_model.h"
#include "graph/builder.h"
#include "profiling/op_task_table.h"
#include "profiling/profiler.h"
#include "profiling/synthetic_profiler.h"
#include "sim/engine.h"

namespace perfbench {

using namespace vtrain;

namespace {

/** The synthetic profiler behind a span and a call counter. */
class CountingProfiler : public Profiler
{
  public:
    CountingProfiler(const ReplicaContext &ctx, Precision precision,
                     Ledger *ledger, uint64_t *calls)
        : inner_(ctx.cluster.node.gpu, precision, ctx.options.attention),
          ledger_(ledger), calls_(calls)
    {
    }

    KernelSequence profileOperator(const OpDesc &desc) override
    {
        Ledger::Span span(ledger_, "profiling.profile");
        ++*calls_;
        return inner_.profileOperator(desc);
    }

    std::string backendName() const override
    {
        return inner_.backendName();
    }

  private:
    SyntheticProfiler inner_;
    Ledger *ledger_;
    uint64_t *calls_;
};

/** What one simulated micro-batch count contributes to a result. */
struct Outcome {
    EngineResult engine;
    size_t num_operators = 0;
    size_t num_tasks = 0;
    size_t distinct_profiled = 0;
    size_t profiler_calls = 0;
};

int
capFor(const ParallelConfig &plan)
{
    return std::max(2 * plan.pipeline + 2, 4);
}

/** Mirrors the simulator's result assembly (fast-mode extrapolation,
 *  utilization); the traced runs' digest checks prove it exact. */
SimulationResult
assemble(const ReplicaContext &ctx, const ModelConfig &model,
         const ParallelConfig &plan, const Outcome &base,
         const Outcome *next, int n_micro, int cap)
{
    SimulationResult result;
    result.total_micro_batches = n_micro;
    if (next) {
        const double slope =
            next->engine.makespan - base.engine.makespan;
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
    result.model_flops = model.modelFlops(plan.tokensPerIteration(model));
    const double peak = static_cast<double>(plan.totalGpus()) *
                        ctx.cluster.node.gpu.peakFlops(plan.precision);
    result.utilization =
        result.model_flops / (result.iteration_seconds * peak);
    return result;
}

uint64_t
fingerprintFor(ReplicaContext &ctx, const ModelConfig &model,
               const ParallelConfig &plan, int n_micro)
{
    const uint64_t fp = structuralFingerprint(
        model, plan, n_micro, ctx.options.collapse_operators,
        ctx.options.attention);
    ctx.counts.fingerprints.insert(fp);
    return fp;
}

/** Builds and captures a template for `fp`; returns it and, through
 *  `tasks`, the expanded graph the queue engine runs. */
std::shared_ptr<const GraphTemplate>
captureTemplate(ReplicaContext &ctx, const ModelConfig &model,
                const ParallelConfig &plan, const CommModel &comm,
                int n_micro, uint64_t fp, OperatorToTaskTable &table,
                TaskGraph *tasks, size_t *num_operators)
{
    GraphBuilder builder(model, plan, ctx.cluster, comm);
    BuildOptions build_options;
    build_options.n_micro_override = n_micro;
    OpGraph ops;
    {
        Ledger::Span span(ctx.ledger, "graph.build");
        ops = builder.build(build_options);
    }
    ExpandOptions expand_options;
    expand_options.collapse_operators = ctx.options.collapse_operators;
    expand_options.perturber = ctx.options.perturber;
    std::shared_ptr<const GraphTemplate> tmpl;
    {
        Ledger::Span span(ctx.ledger, "graph.capture");
        tmpl = GraphTemplate::capture(ops, table, expand_options, tasks);
        ctx.templates->put(fp, tmpl);
    }
    ++ctx.counts.captures;
    ctx.counts.capture_tasks += tasks->numTasks();
    if (num_operators)
        *num_operators = ops.numNodes();
    return tmpl;
}

const ReplaySchedule &
scheduleOf(ReplicaContext &ctx, const GraphTemplate &tmpl)
{
    Ledger::Span span(ctx.ledger, "graph.schedule");
    return tmpl.schedule();
}

/** One capped (or exact) iteration of a single plan. */
Outcome
runOnce(ReplicaContext &ctx, const ModelConfig &model,
        const ParallelConfig &plan, const CommModel &comm, int n_micro,
        OperatorToTaskTable &table)
{
    Outcome outcome;
    const uint64_t fp = fingerprintFor(ctx, model, plan, n_micro);
    std::shared_ptr<const GraphTemplate> tmpl = ctx.templates->get(fp);
    if (tmpl) {
        std::vector<double> durations;
        bool retimed;
        {
            Ledger::Span span(ctx.ledger, "sim.retime");
            retimed = tmpl->retimeDurations(table, plan, ctx.cluster,
                                            comm, &durations);
        }
        ++ctx.counts.retimes;
        if (retimed) {
            const ReplaySchedule &schedule = scheduleOf(ctx, *tmpl);
            {
                Ledger::Span span(ctx.ledger, "sim.replay");
                outcome.engine = replaySimulation(schedule, durations);
            }
            ++ctx.counts.replay_points;
            ctx.counts.replay_tasks += durations.size();
            outcome.num_operators = tmpl->numOperators();
            outcome.num_tasks = durations.size();
            outcome.distinct_profiled = table.numEntries();
            outcome.profiler_calls = table.numProfilerCalls();
            return outcome;
        }
    }
    TaskGraph tasks;
    captureTemplate(ctx, model, plan, comm, n_micro, fp, table, &tasks,
                    &outcome.num_operators);
    {
        Ledger::Span span(ctx.ledger, "sim.queue");
        outcome.engine = runSimulation(tasks);
    }
    outcome.num_tasks = tasks.numTasks();
    outcome.distinct_profiled = table.numEntries();
    outcome.profiler_calls = table.numProfilerCalls();
    return outcome;
}

/** Simulator::simulateIterationBatch over one uniform unit. */
std::vector<SimulationResult>
batchUnit(ReplicaContext &ctx, const ModelConfig &model,
          const std::vector<ParallelConfig> &plans)
{
    const size_t n = plans.size();
    const CommModel comm(ctx.cluster);
    CountingProfiler profiler(ctx, plans[0].precision, ctx.ledger,
                              &ctx.counts.profiler_calls);
    OperatorToTaskTable table(profiler, ctx.options.memoize_profiles);

    const int n_micro0 = plans[0].numMicroBatches();
    const int cap = capFor(plans[0]);
    const bool fast = ctx.options.fast_mode && n_micro0 > cap + 1;
    constexpr size_t kPlanChunk = 32; // the simulator's chunk width

    std::vector<char> fell_back(n, 0);
    std::vector<Outcome> base(n);
    std::vector<Outcome> next(fast ? n : 0);
    for (int pass = 0; pass < (fast ? 2 : 1); ++pass) {
        const int n_micro = pass == 0 ? (fast ? cap : n_micro0) : cap + 1;
        const uint64_t fp = fingerprintFor(ctx, model, plans[0], n_micro);
        std::shared_ptr<const GraphTemplate> tmpl = ctx.templates->get(fp);
        if (!tmpl) {
            TaskGraph expanded;
            tmpl = captureTemplate(ctx, model, plans[0], comm, n_micro, fp,
                                   table, &expanded, nullptr);
        }
        std::vector<Outcome> &out = pass == 0 ? base : next;
        bool prefilled = false;
        for (size_t begin = 0; begin < n; begin += kPlanChunk) {
            const size_t end = std::min(begin + kPlanChunk, n);
            std::vector<std::vector<double>> sets;
            std::vector<size_t> alive;
            for (size_t j = begin; j < end; ++j) {
                if (fell_back[j])
                    continue;
                std::vector<double> durations;
                bool ok;
                {
                    Ledger::Span span(ctx.ledger, "sim.retime");
                    ok = tmpl->retimeDurations(table, plans[j], ctx.cluster,
                                               comm, &durations);
                }
                ++ctx.counts.retimes;
                if (!ok && !prefilled) {
                    // A rejected first retime rejects the whole group.
                    std::fill(fell_back.begin(), fell_back.end(), 1);
                    break;
                }
                prefilled = true;
                if (!ok) {
                    fell_back[j] = 1;
                    continue;
                }
                sets.push_back(std::move(durations));
                alive.push_back(j);
            }
            if (sets.empty())
                continue;
            const ReplaySchedule &schedule = scheduleOf(ctx, *tmpl);
            std::vector<EngineResult> engines;
            {
                Ledger::Span span(ctx.ledger, "sim.replay");
                engines = replayBatch(schedule, sets);
            }
            ctx.counts.replay_points += sets.size();
            ctx.counts.replay_tasks += sets.size() * tmpl->numTasks();
            for (size_t s = 0; s < alive.size(); ++s)
                out[alive[s]].engine = std::move(engines[s]);
        }
        for (size_t j = 0; j < n; ++j) {
            if (fell_back[j])
                continue;
            out[j].num_operators = tmpl->numOperators();
            out[j].num_tasks = tmpl->numTasks();
            out[j].distinct_profiled = table.numEntries();
            out[j].profiler_calls = table.numProfilerCalls();
        }
    }
    ctx.counts.table_entries += table.numEntries();

    std::vector<SimulationResult> results(n);
    for (size_t j = 0; j < n; ++j)
        results[j] = fell_back[j]
                         ? replicaSimulate(ctx, model, plans[j])
                         : assemble(ctx, model, plans[j], base[j],
                                    fast ? &next[j] : nullptr,
                                    plans[j].numMicroBatches(), cap);
    return results;
}

} // namespace

SimulationResult
replicaSimulate(ReplicaContext &ctx, const ModelConfig &model,
                const ParallelConfig &plan)
{
    const CommModel comm(ctx.cluster);
    CountingProfiler profiler(ctx, plan.precision, ctx.ledger,
                              &ctx.counts.profiler_calls);
    OperatorToTaskTable table(profiler, ctx.options.memoize_profiles);
    const int n_micro = plan.numMicroBatches();
    const int cap = capFor(plan);
    SimulationResult result;
    if (ctx.options.fast_mode && n_micro > cap + 1) {
        const Outcome base = runOnce(ctx, model, plan, comm, cap, table);
        const Outcome next =
            runOnce(ctx, model, plan, comm, cap + 1, table);
        result = assemble(ctx, model, plan, base, &next, n_micro, cap);
    } else {
        const Outcome run = runOnce(ctx, model, plan, comm, n_micro, table);
        result = assemble(ctx, model, plan, run, nullptr, n_micro, cap);
    }
    ctx.counts.table_entries += table.numEntries();
    return result;
}

std::vector<SimulationResult>
replicaSweep(ReplicaContext &ctx, const ModelConfig &model,
             const std::vector<ParallelConfig> &plans)
{
    // Same container and insertion order as the service's grouping,
    // so units run in the same order against the template cache.
    std::unordered_map<uint64_t, std::vector<size_t>> groups;
    {
        Ledger::Span span(ctx.ledger, "explore.group");
        for (size_t i = 0; i < plans.size(); ++i)
            groups[batchGroupKey(model, plans[i], ctx.cluster,
                                 ctx.options)]
                .push_back(i);
    }
    ctx.counts.groups += groups.size();

    constexpr size_t kMaxGroupPerTask = 64; // the service's unit size
    std::vector<SimulationResult> results(plans.size());
    for (const auto &[key, members] : groups) {
        for (size_t begin = 0; begin < members.size();
             begin += kMaxGroupPerTask) {
            const size_t end =
                std::min(begin + kMaxGroupPerTask, members.size());
            if (end - begin == 1) {
                results[members[begin]] =
                    replicaSimulate(ctx, model, plans[members[begin]]);
                continue;
            }
            std::vector<ParallelConfig> unit;
            for (size_t m = begin; m < end; ++m)
                unit.push_back(plans[members[m]]);
            std::vector<SimulationResult> out = batchUnit(ctx, model, unit);
            for (size_t m = begin; m < end; ++m)
                results[members[m]] = std::move(out[m - begin]);
        }
    }
    return results;
}

} // namespace perfbench
