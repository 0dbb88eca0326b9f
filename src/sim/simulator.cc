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
#include "util/thread_pool.h"
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
            const std::string_view help =
                "Simulator phase latency: graph assembly, template "
                "capture/expand, retime, schedule replay, and the "
                "event-queue engine (kernel- or operator-level).";
            std::array<util::Histogram *, kCount> h{};
            for (size_t i = 0; i < kCount; ++i)
                h[i] = r.histogram("vtrain_sim_phase_seconds",
                                   {{"phase", kLabels[i]}}, help);
            return h;
        }();
        return series;
    }

    util::TraceSpan span_;
    util::ScopedLatency timer_;
};

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
Simulator::runOnce(const ModelConfig &model, const ParallelConfig &parallel,
                   int n_micro, OperatorToTaskTable &table) const
{
    // The template path requires determinism (no perturber) and the
    // memoized table (the non-memoized ablation deliberately pays for
    // re-profiling every node, which re-timing would skip).
    const bool use_templates = templates_ != nullptr &&
                               options_.memoize_profiles &&
                               options_.perturber == nullptr;

    RunOutcome outcome;
    if (!use_templates) {
        // The kernel-level oracle: expand every operator into tasks
        // and run the queue engine over them.
        const OpGraph ops = buildOps(model, parallel, n_micro);
        ExpandOptions expand_options;
        expand_options.collapse_operators = options_.collapse_operators;
        expand_options.perturber = options_.perturber;
        TaskGraph tasks;
        {
            Phase phase(Phase::TemplateCapture);
            tasks = TaskGraph::expand(ops, table, expand_options);
        }
        {
            Phase phase(Phase::QueueRun);
            outcome.engine = runSimulation(tasks);
        }
        counters_->queue_runs.fetch_add(1, std::memory_order_relaxed);
        outcome.num_operators = ops.numNodes();
        outcome.num_tasks = tasks.numTasks();
    } else {
        const uint64_t fingerprint = structuralFingerprint(
            model, parallel, n_micro, options_.collapse_operators,
            options_.attention);
        std::shared_ptr<const GraphTemplate> tmpl =
            templates_->get(fingerprint);
        std::vector<double> durations;
        bool retimed = false;
        if (tmpl) {
            // Warm path: durations-only retime + schedule replay, no
            // graph assembly and no queue.
            Phase phase(Phase::TemplateRetime);
            retimed = tmpl->retimeDurations(table, parallel, cluster_,
                                            comm_, &durations);
        }
        if (retimed) {
            {
                Phase phase(Phase::Replay);
                outcome.engine =
                    replaySimulation(tmpl->schedule(), durations);
            }
            counters_->replay_runs.fetch_add(1, std::memory_order_relaxed);
        } else {
            // Miss (or a disagreeing table): capture at operator
            // granularity and run the op-level FIFO once.  The replay
            // schedule is derived only on a template's first reuse, so
            // a sweep that thrashes the cache with single-use
            // topologies never pays for one.
            tmpl = captureTemplate(model, parallel, n_micro, fingerprint,
                                   table);
            std::vector<double> slots;
            {
                Phase phase(Phase::TemplateRetime);
                VTRAIN_CHECK(tmpl->retimeSlots(table, parallel, cluster_,
                                               comm_, &slots),
                             "a fresh capture must retime with its own "
                             "table");
            }
            {
                Phase phase(Phase::QueueRun);
                const double *table_ptr = slots.data();
                runOpBatch(tmpl->ops(), &table_ptr, 1, &outcome.engine);
            }
            counters_->queue_runs.fetch_add(1, std::memory_order_relaxed);
        }
        outcome.num_operators = tmpl->numOperators();
        outcome.num_tasks = tmpl->numTasks();
    }
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

    SyntheticProfiler profiler(cluster_.node.gpu, parallel.precision,
                               options_.attention);
    OperatorToTaskTable table(profiler, options_.memoize_profiles);

    const int n_micro = parallel.numMicroBatches();
    // Simulating 2p+2 micro-batches covers warmup, at least one full
    // steady-state period per stage, and drain for both schedules.
    const int cap = std::max(2 * parallel.pipeline + 2, 4);

    SimulationResult result;
    if (options_.fast_mode && n_micro > cap + 1) {
        const RunOutcome base = runOnce(model, parallel, cap, table);
        const RunOutcome next = runOnce(model, parallel, cap + 1, table);
        result = assembleResult(model, parallel, base, &next, n_micro,
                                cap);
    } else {
        const RunOutcome run = runOnce(model, parallel, n_micro, table);
        result =
            assembleResult(model, parallel, run, nullptr, n_micro, cap);
    }

    result.sim_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return result;
}

uint64_t
batchGroupKey(const ModelConfig &model, const ParallelConfig &parallel,
              const ClusterSpec &cluster, const SimOptions &options)
{
    // The batched path needs determinism (no perturber) and the
    // memoized table (mirroring the simulator's template gate), and a
    // well-formed enough plan to derive the micro-batch count.
    if (!options.memoize_profiles || options.perturber != nullptr)
        return 0;
    if (parallel.data <= 0 || parallel.micro_batch_size <= 0 ||
        parallel.pipeline <= 0)
        return 0;
    const int n_micro = parallel.numMicroBatches();
    const int cap = std::max(2 * parallel.pipeline + 2, 4);
    const bool fast = options.fast_mode && n_micro > cap + 1;
    // Fast-mode points simulate the capped prefix regardless of their
    // own n_micro, so any fast point of a structure groups; exact
    // points must agree on the simulated count itself.
    const int n_sim = fast ? cap : n_micro;

    Hash64 h;
    h.mix(std::string_view("vtrain.batch-group.v1"));
    hashAppend(h, options);
    hashAppend(h, cluster);
    hashAppend(h, model);
    // Precision selects the profiler, which the group shares; it is
    // deliberately absent from the structural fingerprint.
    h.mix(static_cast<int64_t>(parallel.precision));
    h.mix(fast).mix(int64_t{n_sim});
    h.mix(structuralFingerprint(model, parallel, n_sim,
                                options.collapse_operators,
                                options.attention));
    return h.digest();
}

void
Simulator::opGroupPass(const GraphTemplate &tmpl,
                       const std::vector<ParallelConfig> &plans,
                       OperatorToTaskTable &table,
                       std::vector<char> &fell_back,
                       std::vector<RunOutcome> &out) const
{
    // A slot table is a few dozen doubles, so the whole group retimes
    // up front and walks the op FIFO once, K points in lockstep.
    std::vector<std::vector<double>> slots(plans.size());
    std::vector<const double *> table_ptrs;
    std::vector<size_t> alive;
    {
        Phase phase(Phase::TemplateRetime);
        for (size_t j = 0; j < plans.size(); ++j) {
            if (fell_back[j])
                continue;
            bool ok = false;
            try {
                ok = tmpl.retimeSlots(table, plans[j], cluster_, comm_,
                                      &slots[j]);
            } catch (...) {
                // The plan recomputes on its own simulateIteration(),
                // which surfaces a persistent error to the caller.
            }
            if (!ok) {
                fell_back[j] = 1;
                continue;
            }
            table_ptrs.push_back(slots[j].data());
            alive.push_back(j);
        }
    }
    if (alive.empty())
        return;
    std::vector<EngineResult> engines(alive.size());
    {
        Phase phase(Phase::QueueRun);
        runOpBatch(tmpl.ops(), table_ptrs.data(), table_ptrs.size(),
                   engines.data());
    }
    counters_->batched_points.fetch_add(alive.size(),
                                        std::memory_order_relaxed);
    for (size_t s = 0; s < alive.size(); ++s)
        out[alive[s]].engine = std::move(engines[s]);
}

void
Simulator::replayGroupPass(const GraphTemplate &tmpl,
                           const std::vector<ParallelConfig> &plans,
                           OperatorToTaskTable &table,
                           std::vector<char> &fell_back,
                           std::vector<RunOutcome> &out) const
{
    const size_t n_plans = plans.size();

    // Bounds the number of duration vectors alive at once, so a
    // 512-point sweep over a 400k-task topology does not hold
    // 512 * 400k doubles.
    constexpr size_t kPlanChunk = 32;

    // Chunked retime -> replay pipeline, double buffered: while the
    // main thread replays chunk c out of one buffer, the retime pool
    // (when set) produces chunk c+1's durations into the other.
    // Duration buffers are reused across chunks: retimeDurations
    // resizes in place, so the steady state re-times without
    // allocating.
    //
    // Concurrent retimes are safe *after the pass's first retime has
    // run serially*: every plan in the group looks up the same
    // template descriptors, so that prefill inserts every table entry
    // and the parallel retimes only take read-only memoized hits (the
    // table is not thread-safe under mutation).  Durations are a pure
    // function of the plan, so results — and the table/counter
    // snapshots — are bit-identical to the serial loop.
    struct ChunkBuf {
        std::vector<std::vector<double>> sets; // slot-indexed
        std::vector<size_t> owner;             // plan per slot
        std::vector<char> ok; //!< slot's retime succeeded
    };
    ChunkBuf bufs[2];
    bool prefilled = false;

    // Collects a chunk's pending plans, serially runs the pass's first
    // retime (table prefill), then either launches the rest on the
    // pool (returns the in-flight job) or runs them serially (returns
    // null).
    const auto start_chunk =
        [&](size_t begin, size_t end,
            ChunkBuf &buf) -> std::shared_ptr<ThreadPool::ForJob> {
        buf.owner.clear();
        for (size_t j = begin; j < end; ++j)
            if (!fell_back[j])
                buf.owner.push_back(j);
        const size_t count = buf.owner.size();
        buf.ok.assign(count, 0);
        while (buf.sets.size() < count)
            buf.sets.emplace_back();
        if (count == 0)
            return nullptr;

        const auto retime_one = [&buf, &tmpl, &table, &plans,
                                 this](size_t slot) {
            try {
                buf.ok[slot] = tmpl.retimeDurations(
                                   table, plans[buf.owner[slot]],
                                   cluster_, comm_, &buf.sets[slot])
                                   ? 1
                                   : 0;
            } catch (...) {
                // A throwing retime must not escape a pool worker; the
                // plan falls back to its own simulateIteration()
                // (which recomputes from scratch and surfaces any
                // persistent error on the calling thread).
                buf.ok[slot] = 0;
            }
        };

        Phase phase(Phase::TemplateRetime);
        size_t first = 0;
        if (!prefilled) {
            retime_one(0);
            prefilled = true;
            first = 1;
            if (!buf.ok[0]) {
                // Retime rejection (foreign profiler or fingerprint
                // collision) is plan-independent within a uniform
                // group — every other pending plan would reject
                // against the same template and table — so mark them
                // all fallen back instead of running K rejections.
                // Matches the serial loop's end state exactly: each
                // serial rejection after the first is a read-only
                // no-op.
                std::fill(fell_back.begin(), fell_back.end(), 1);
                return nullptr;
            }
        }
        if (first >= count)
            return nullptr;
        if (retime_pool_ == nullptr) {
            for (size_t s = first; s < count; ++s)
                retime_one(s);
            return nullptr;
        }
        return retime_pool_->startFor(
            count - first, /*grain=*/1,
            [retime_one, first](size_t b, size_t e) {
                for (size_t s = b; s < e; ++s)
                    retime_one(first + s);
            });
    };

    const size_t n_chunks = (n_plans + kPlanChunk - 1) / kPlanChunk;
    std::vector<const double *> set_ptrs;
    std::vector<size_t> alive;
    std::vector<EngineResult> engines;
    std::shared_ptr<ThreadPool::ForJob> job =
        start_chunk(0, std::min(kPlanChunk, n_plans), bufs[0]);
    for (size_t c = 0; c < n_chunks; ++c) {
        ChunkBuf &buf = bufs[c % 2];
        if (job) {
            Phase phase(Phase::TemplateRetime);
            job->finish(); // cooperative: helps run the chunks
            job = nullptr;
        }
        // Compact the chunk's survivors to pointers before touching
        // the engine, and launch the next chunk's retimes so they
        // overlap the replay below.
        set_ptrs.clear();
        alive.clear();
        for (size_t s = 0; s < buf.owner.size(); ++s) {
            if (!buf.ok[s]) {
                // Foreign profiler or fingerprint collision: this plan
                // rebuilds from scratch.
                fell_back[buf.owner[s]] = 1;
                continue;
            }
            set_ptrs.push_back(buf.sets[s].data());
            alive.push_back(buf.owner[s]);
        }
        if (c + 1 < n_chunks) {
            const size_t nb = (c + 1) * kPlanChunk;
            job = start_chunk(nb, std::min(nb + kPlanChunk, n_plans),
                              bufs[(c + 1) % 2]);
        }
        if (set_ptrs.empty())
            continue;
        engines.resize(set_ptrs.size());
        {
            Phase phase(Phase::Replay);
            replayBatchInto(tmpl.schedule(), set_ptrs.data(),
                            set_ptrs.size(), engines.data(),
                            activeReplayKernel());
        }
        counters_->batched_points.fetch_add(set_ptrs.size(),
                                            std::memory_order_relaxed);
        for (size_t s = 0; s < alive.size(); ++s)
            out[alive[s]].engine = std::move(engines[s]);
    }
}

std::vector<SimulationResult>
Simulator::simulateIterationBatch(const ModelConfig &model,
                                  const std::vector<ParallelConfig> &plans)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const size_t n_plans = plans.size();
    std::vector<SimulationResult> results(n_plans);
    if (n_plans == 0)
        return results;

    // The group must be uniform: one key, shared by every plan.  A
    // mixed or unbatchable group transparently degrades to the
    // per-plan path (identical results, no shared work).
    const uint64_t key =
        batchGroupKey(model, plans[0], cluster_, options_);
    bool batchable = key != 0 && templates_ != nullptr;
    for (size_t i = 1; batchable && i < n_plans; ++i)
        batchable =
            batchGroupKey(model, plans[i], cluster_, options_) == key;
    if (!batchable) {
        for (size_t i = 0; i < n_plans; ++i)
            results[i] = simulateIteration(model, plans[i]);
        return results;
    }

    model.validate();
    for (const ParallelConfig &plan : plans)
        plan.validate(model, cluster_);

    // One profiler table for the whole group: every plan re-times the
    // same interned descriptors, so each distinct operator is
    // profiled once for all K points.
    SyntheticProfiler profiler(cluster_.node.gpu, plans[0].precision,
                               options_.attention);
    OperatorToTaskTable table(profiler, options_.memoize_profiles);

    const int n_micro0 = plans[0].numMicroBatches();
    const int cap = std::max(2 * plans[0].pipeline + 2, 4);
    const bool fast = options_.fast_mode && n_micro0 > cap + 1;
    const int n_passes = fast ? 2 : 1;

    std::vector<char> fell_back(n_plans, 0);
    std::vector<RunOutcome> base(n_plans);
    std::vector<RunOutcome> next(fast ? n_plans : 0);
    for (int pass = 0; pass < n_passes; ++pass) {
        const int n_micro = pass == 0 ? (fast ? cap : n_micro0)
                                      : cap + 1;
        const uint64_t fp = structuralFingerprint(
            model, plans[0], n_micro, options_.collapse_operators,
            options_.attention);
        std::vector<RunOutcome> &out = pass == 0 ? base : next;
        std::shared_ptr<const GraphTemplate> tmpl = templates_->get(fp);
        if (tmpl) {
            replayGroupPass(*tmpl, plans, table, fell_back, out);
        } else {
            tmpl = captureTemplate(model, plans[0], n_micro, fp, table);
            opGroupPass(*tmpl, plans, table, fell_back, out);
        }

        // Table statistics snapshot, taken where the per-plan path
        // takes it: after this pass's (re)timing work.
        for (size_t j = 0; j < n_plans; ++j) {
            if (fell_back[j])
                continue;
            out[j].num_operators = tmpl->numOperators();
            out[j].num_tasks = tmpl->numTasks();
            out[j].distinct_profiled = table.numEntries();
            out[j].profiler_calls = table.numProfilerCalls();
        }
    }

    // The batched points share one wall clock; snapshot it before the
    // fallback loop (whose plans measure their own simulations) and
    // report the amortized per-point cost so numbers stay comparable
    // across entry points.
    const double batched_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    size_t batched = 0;
    for (size_t j = 0; j < n_plans; ++j) {
        if (fell_back[j]) {
            results[j] = simulateIteration(model, plans[j]);
            continue;
        }
        results[j] = assembleResult(model, plans[j], base[j],
                                    fast ? &next[j] : nullptr,
                                    plans[j].numMicroBatches(), cap);
        ++batched;
    }
    if (batched > 0) {
        const double amortized =
            batched_wall / static_cast<double>(batched);
        for (size_t j = 0; j < n_plans; ++j)
            if (!fell_back[j])
                results[j].sim_wall_seconds = amortized;
    }
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
