/**
 * @file
 * Google-benchmark microbenchmarks of the simulator pipeline
 * (Sec. III-F: profiling is O(1) thanks to necessary-operator
 * deduplication; a single configuration simulates in seconds; a full
 * DSE finishes in minutes).  Also benches the two ablations DESIGN.md
 * calls out: memoization off and operator-collapse on.
 */
#include <benchmark/benchmark.h>

#include "util/metrics.h"
#include "vtrain/vtrain.h"

namespace {

using namespace vtrain;

ParallelConfig
mtNlgPlan()
{
    ParallelConfig plan;
    plan.tensor = 8;
    plan.data = 8;
    plan.pipeline = 35;
    plan.micro_batch_size = 1;
    plan.global_batch_size = 1920;
    return plan;
}

ParallelConfig
gpt3Plan()
{
    ParallelConfig plan;
    plan.tensor = 8;
    plan.data = 16;
    plan.pipeline = 8;
    plan.micro_batch_size = 1;
    plan.global_batch_size = 1536;
    return plan;
}

void
BM_GraphBuild(benchmark::State &state)
{
    setVerbose(false);
    const ModelConfig model = zoo::mtNlg530b();
    const ClusterSpec cluster = makeCluster(3360);
    const ParallelConfig plan = mtNlgPlan();
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    BuildOptions options;
    options.n_micro_override = static_cast<int>(state.range(0));
    for (auto _ : state) {
        OpGraph g = builder.build(options);
        benchmark::DoNotOptimize(g.numNodes());
    }
}
BENCHMARK(BM_GraphBuild)->Arg(8)->Arg(72)->Arg(240);

void
BM_TaskExpansion(benchmark::State &state)
{
    setVerbose(false);
    const ModelConfig model = zoo::mtNlg530b();
    const ClusterSpec cluster = makeCluster(3360);
    const ParallelConfig plan = mtNlgPlan();
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    BuildOptions options;
    options.n_micro_override = 72;
    const OpGraph ops = builder.build(options);
    SyntheticProfiler profiler(cluster.node.gpu);
    // Priming pass (outside timing): touch the expansion's working
    // set so the first measured iteration is steady-state, matching
    // the BM_SimulateIteration_* benches.  The memoize-off ablation
    // in particular drifts without this: its first pass faults the
    // whole profiled-table allocation in.
    {
        OperatorToTaskTable warmup(profiler,
                                   /*memoize=*/state.range(0) != 0);
        TaskGraph tg = TaskGraph::expand(ops, warmup);
        benchmark::DoNotOptimize(tg.numTasks());
    }
    for (auto _ : state) {
        OperatorToTaskTable table(profiler,
                                  /*memoize=*/state.range(0) != 0);
        TaskGraph tg = TaskGraph::expand(ops, table);
        benchmark::DoNotOptimize(tg.numTasks());
    }
}
// Ablation: memoized ("necessary operators") vs re-profiling every
// lookup.  The memoized path profiles O(1) operators.
BENCHMARK(BM_TaskExpansion)->Arg(1)->Arg(0);

void
BM_EngineRun(benchmark::State &state)
{
    setVerbose(false);
    const ModelConfig model = zoo::mtNlg530b();
    const ClusterSpec cluster = makeCluster(3360);
    const ParallelConfig plan = mtNlgPlan();
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    BuildOptions options;
    options.n_micro_override = 72;
    const OpGraph ops = builder.build(options);
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    ExpandOptions expand;
    expand.collapse_operators = state.range(0) != 0;
    const TaskGraph tg = TaskGraph::expand(ops, table, expand);
    for (auto _ : state) {
        EngineResult r = runSimulation(tg);
        benchmark::DoNotOptimize(r.makespan);
    }
    state.counters["tasks"] = static_cast<double>(tg.numTasks());
}
// Ablation: kernel-granularity vs collapsed operator-granularity
// replay (identical timing, fewer tasks).
BENCHMARK(BM_EngineRun)->Arg(0)->Arg(1);

void
BM_SimulateIteration_MtNlg(benchmark::State &state)
{
    // Arg 0: warm — the template cache is primed, so every measured
    //        iteration is the steady-state request cost (retime +
    //        schedule replay; BM_TemplateRetime reports the
    //        cold/warm split of graph production alone).
    // Arg 1: cold — a fresh template cache per iteration, so every
    //        iteration builds, captures and runs the op-level FIFO.
    setVerbose(false);
    const ModelConfig model = zoo::mtNlg530b();
    const ClusterSpec cluster = makeCluster(3360);
    const ParallelConfig plan = mtNlgPlan();
    const bool cold = state.range(0) != 0;
    Simulator warm(cluster);
    (void)warm.simulateIteration(model, plan); // captures
    (void)warm.simulateIteration(model, plan); // derives the schedule
    for (auto _ : state) {
        if (cold) {
            Simulator sim(cluster, SimOptions{},
                          std::make_shared<GraphTemplateCache>());
            SimulationResult r = sim.simulateIteration(model, plan);
            benchmark::DoNotOptimize(r.iteration_seconds);
        } else {
            SimulationResult r = warm.simulateIteration(model, plan);
            benchmark::DoNotOptimize(r.iteration_seconds);
        }
    }
}
BENCHMARK(BM_SimulateIteration_MtNlg)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Per-iteration sums of the library's vtrain_sim_phase_seconds
 * series over a benchmark's timed loop, reported as counters named
 * <phase><suffix>.
 */
class PhaseCounters
{
  public:
    explicit PhaseCounters(std::vector<std::string> phases)
        : phases_(std::move(phases))
    {
        for (const std::string &phase : phases_) {
            series_.push_back(util::MetricRegistry::global().histogram(
                "vtrain_sim_phase_seconds", {{"phase", phase}}));
            before_.push_back(series_.back()->snapshot().sum);
        }
    }

    void
    report(benchmark::State &state, double scale, const char *suffix) const
    {
        const double iterations = static_cast<double>(state.iterations());
        for (size_t i = 0; i < series_.size(); ++i)
            state.counters[phases_[i] + suffix] =
                (series_[i]->snapshot().sum - before_[i]) * scale /
                iterations;
    }

  private:
    std::vector<std::string> phases_;
    std::vector<util::Histogram *> series_;
    std::vector<double> before_;
};

void
BM_WarmMiss_Gpt3(benchmark::State &state)
{
    // A serve_mixed miss in process: GPT-3 175B on 1024 GPUs at p=8,
    // both capped templates warm (captured, run schedules derived),
    // and each iteration a global batch size not simulated before, so
    // it retimes two slot tables and replays two run schedules.
    // Counters: per-iteration microseconds of those two phases, read
    // from the library's own vtrain_sim_phase_seconds histograms.
    setVerbose(false);
    const ModelConfig model = zoo::gpt3_175b();
    Simulator sim(makeCluster(1024));
    ParallelConfig plan = gpt3Plan();
    (void)sim.simulateIteration(model, plan); // captures
    (void)sim.simulateIteration(model, plan); // derives the run schedules
    const PhaseCounters phases({"template_retime", "replay", "queue_run"});
    int fresh = 0;
    for (auto _ : state) {
        plan.global_batch_size =
            plan.data * plan.micro_batch_size * (97 + fresh++ % 4096);
        SimulationResult r = sim.simulateIteration(model, plan);
        benchmark::DoNotOptimize(r.iteration_seconds);
    }
    phases.report(state, 1e6, "_us");
}
BENCHMARK(BM_WarmMiss_Gpt3)->Unit(benchmark::kMicrosecond);

void
BM_ColdSweep_Mtnlg(benchmark::State &state)
{
    // The paper's MT-NLG 530B space (Table I, Fig. 10) on 2048 GPUs,
    // one fresh single-threaded Explorer per iteration: every topology
    // misses the template cache, so this is the cold path end to end.
    // Counters: per-sweep seconds of each simulator phase, read from
    // the library's own vtrain_sim_phase_seconds histograms.
    setVerbose(false);
    const ModelConfig model = zoo::mtNlg530b();
    const ClusterSpec cluster = makeCluster(2048);
    SweepSpec spec;
    spec.global_batch_size = 1920;
    spec.max_tensor = 8;
    spec.max_data = 32;
    spec.max_pipeline = 105;
    spec.micro_batch_sizes = {1, 2};
    spec.max_gpus = 2048;
    const std::vector<ParallelConfig> plans =
        enumeratePlans(model, cluster, spec);

    const PhaseCounters phases({"graph_build", "template_capture",
                                "template_retime", "replay", "queue_run"});
    for (auto _ : state) {
        Explorer explorer(cluster, SimOptions{}, 1);
        auto results = explorer.sweep(model, plans);
        benchmark::DoNotOptimize(results.data());
    }
    phases.report(state, 1.0, "_s");
    state.counters["plans"] = static_cast<double>(plans.size());
}
// Wall time: the sweep blocks on its pool worker.
BENCHMARK(BM_ColdSweep_Mtnlg)
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_OpPair_Mtnlg(benchmark::State &state)
{
    // Fast mode's cold pair on capped MT-NLG 530B: the cap = 2p + 2
    // and cap + 1 graphs timed for K plans (t = 8, d = 2 .. K + 1,
    // m = 1).  Args: p, K, and 0 = two runOpBatch walks or 1 = one
    // runOpPair that walks their shared prefix once.  Counter
    // shared_pop_frac: the pops the pair shares over the cap + 1
    // graph's pops.
    setVerbose(false);
    const ModelConfig model = zoo::mtNlg530b();
    const ClusterSpec cluster = makeCluster(2048);
    const int pipeline = static_cast<int>(state.range(0));
    const auto k = static_cast<size_t>(state.range(1));
    const bool pair = state.range(2) != 0;
    CommModel comm(cluster);
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    std::vector<ParallelConfig> plans(k);
    for (size_t j = 0; j < k; ++j) {
        plans[j].tensor = 8;
        plans[j].data = 2 + static_cast<int>(j);
        plans[j].pipeline = pipeline;
        plans[j].micro_batch_size = 1;
        plans[j].global_batch_size = 1920;
    }
    std::shared_ptr<const GraphTemplate> tmpls[2];
    std::vector<std::vector<double>> slots[2];
    for (int pass = 0; pass < 2; ++pass) {
        BuildOptions options;
        options.n_micro_override = 2 * pipeline + 2 + pass;
        tmpls[pass] = GraphTemplate::capture(
            GraphBuilder(model, plans[0], cluster, comm).build(options),
            table, ExpandOptions{}, nullptr);
        slots[pass].resize(k);
        for (size_t j = 0; j < k; ++j)
            if (!tmpls[pass]->retimeSlots(table, plans[j], cluster, comm,
                                          &slots[pass][j])) {
                state.SkipWithError("retime rejected the table");
                return;
            }
    }
    if (slots[0] != slots[1]) {
        state.SkipWithError("the pair's slot tables differ");
        return;
    }
    std::vector<const double *> slot_ptrs;
    for (const std::vector<double> &t : slots[0])
        slot_ptrs.push_back(t.data());

    std::vector<EngineResult> results[2] = {std::vector<EngineResult>(k),
                                            std::vector<EngineResult>(k)};
    size_t shared = 0;
    for (auto _ : state) {
        if (pair) {
            shared = runOpPair(tmpls[0]->ops(), tmpls[1]->ops(),
                               slot_ptrs.data(), k, results[0].data(),
                               results[1].data());
        } else {
            for (int pass = 0; pass < 2; ++pass)
                runOpBatch(tmpls[pass]->ops(), slot_ptrs.data(), k,
                           results[pass].data());
        }
        benchmark::DoNotOptimize(results[1][0].makespan);
    }
    state.counters["shared_pop_frac"] =
        static_cast<double>(shared) /
        static_cast<double>(tmpls[1]->numTasks());
    state.counters["pops"] = static_cast<double>(
        tmpls[0]->numTasks() + tmpls[1]->numTasks() - shared);
}
BENCHMARK(BM_OpPair_Mtnlg)
    ->Args({35, 5, 0})
    ->Args({35, 5, 1})
    ->Args({105, 1, 0})
    ->Args({105, 1, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_SimulateIteration_Gpt3(benchmark::State &state)
{
    setVerbose(false);
    const ModelConfig model = zoo::gpt3_175b();
    Simulator sim(makeCluster(1024));
    const ParallelConfig plan = gpt3Plan();
    (void)sim.simulateIteration(model, plan); // prime (see MtNlg)
    for (auto _ : state) {
        SimulationResult r = sim.simulateIteration(model, plan);
        benchmark::DoNotOptimize(r.iteration_seconds);
    }
}
BENCHMARK(BM_SimulateIteration_Gpt3)->Unit(benchmark::kMillisecond);

void
BM_TemplateRetime(benchmark::State &state)
{
    // Arg 0: model (0 = MT-NLG 530B, 1 = GPT-3 175B).
    // Arg 1: 0 = cold (the simulator's template-miss path: graph
    //            build + operator-level capture, no expansion),
    //        1 = warm (the hit path: re-time the cached template).
    setVerbose(false);
    const bool gpt3 = state.range(0) != 0;
    const bool warm = state.range(1) != 0;
    const ModelConfig model = gpt3 ? zoo::gpt3_175b() : zoo::mtNlg530b();
    const ClusterSpec cluster = makeCluster(gpt3 ? 1024 : 3360);
    const ParallelConfig plan = gpt3 ? gpt3Plan() : mtNlgPlan();
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    BuildOptions options;
    options.n_micro_override = 2 * plan.pipeline + 2; // fast-mode cap
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);

    const OpGraph ops = builder.build(options);
    TaskGraph expanded;
    const auto tmpl =
        GraphTemplate::capture(ops, table, ExpandOptions{}, &expanded);

    for (auto _ : state) {
        if (warm) {
            TaskGraph out;
            if (!tmpl->retime(table, plan, cluster, comm, &out)) {
                state.SkipWithError("retime rejected the table");
                break;
            }
            benchmark::DoNotOptimize(out.numTasks());
        } else {
            OpGraph g = builder.build(options);
            const auto fresh = GraphTemplate::capture(
                g, table, ExpandOptions{}, nullptr);
            benchmark::DoNotOptimize(fresh->numTasks());
        }
    }
    state.counters["tasks"] = static_cast<double>(tmpl->numTasks());
}
// Build-once/retime-many: cold (miss) vs warm (hit) graph production
// for the two flagship shapes; the engine replay is excluded so the
// ratio isolates exactly what the template cache removes.
BENCHMARK(BM_TemplateRetime)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_BatchedReplay(benchmark::State &state)
{
    // K = 64 sweep points over one GPT-3 capped template: the
    // batched-sweep engine cost, compared against simulating the
    // same points one at a time.  Arg:
    //   0 = sequential queue engine (retime + runSimulation), the
    //       warm path before schedule replay existed;
    //   1 = sequential schedule replay (retimeDurations +
    //       replaySimulation), one replay per request;
    //   2 = batched per-task replay (retimeDurations per point + one
    //       K-wide replayBatch);
    //   3 = batched run replay (retimeSlots per point + one K-wide
    //       replayRuns), the grouped-sweep path.
    setVerbose(false);
    constexpr int kPoints = 64;
    const ModelConfig model = zoo::gpt3_175b();
    const ClusterSpec cluster = makeCluster(1024);
    const ParallelConfig plan = gpt3Plan();
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    BuildOptions options;
    options.n_micro_override = 2 * plan.pipeline + 2; // fast-mode cap
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    const OpGraph ops = builder.build(options);
    TaskGraph expanded;
    const auto tmpl =
        GraphTemplate::capture(ops, table, ExpandOptions{}, &expanded);
    const ReplaySchedule &schedule = tmpl->schedule(); // build once
    const RunSchedule *runs = tmpl->runs();
    if (runs == nullptr) {
        state.SkipWithError("template keeps no run schedule");
        return;
    }

    const int mode = static_cast<int>(state.range(0));
    std::vector<std::vector<double>> sets(kPoints);
    std::vector<const double *> set_ptrs(kPoints);
    std::vector<EngineResult> results(kPoints);
    for (auto _ : state) {
        double checksum = 0.0;
        bool ok = true;
        if (mode == 3) {
            for (int k = 0; ok && k < kPoints; ++k) {
                ok = tmpl->retimeSlots(table, plan, cluster, comm, &sets[k]);
                set_ptrs[k] = sets[k].data();
            }
            if (ok) {
                replayRuns(*runs, set_ptrs.data(), kPoints, results.data());
                for (const EngineResult &r : results)
                    checksum += r.makespan;
            }
        } else if (mode == 2) {
            for (int k = 0; ok && k < kPoints; ++k)
                ok = tmpl->retimeDurations(table, plan, cluster, comm,
                                           &sets[k]);
            if (ok)
                for (const EngineResult &r : replayBatch(schedule, sets))
                    checksum += r.makespan;
        } else if (mode == 1) {
            std::vector<double> durations;
            for (int k = 0; ok && k < kPoints; ++k) {
                ok = tmpl->retimeDurations(table, plan, cluster, comm,
                                           &durations);
                if (ok)
                    checksum +=
                        replaySimulation(schedule, durations).makespan;
            }
        } else {
            for (int k = 0; ok && k < kPoints; ++k) {
                TaskGraph graph;
                ok = tmpl->retime(table, plan, cluster, comm, &graph);
                if (ok)
                    checksum += runSimulation(graph).makespan;
            }
        }
        if (!ok) {
            state.SkipWithError("retime rejected the table");
            break;
        }
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(state.iterations() * kPoints);
    state.counters["tasks"] = static_cast<double>(tmpl->numTasks());
    state.counters["points"] = kPoints;
}
// The batched-sweep acceptance metric: Arg 3 (batched run replay,
// the simulator's path) vs Arg 2 (batched per-task replay), Arg 1
// (K sequential per-task replays) and Arg 0 (K sequential queue
// runs, the pre-replay baseline).
BENCHMARK(BM_BatchedReplay)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

void
BM_ReplayKernel(benchmark::State &state)
{
    // The K-wide max-accumulate inner loop isolated from retiming:
    // K pre-retimed duration vectors over one GPT-3 capped template,
    // one replayBatch per iteration pinned to a kernel.  Arms
    // that name a kernel the binary/host cannot run are skipped, so
    // the suite is portable while still exposing the SIMD roof where
    // the hardware has one.
    //   Arg 0: kernel (0 = scalar, 1 = AVX2);
    //   Arg 1: K, the batch width (sweeps vector bodies and tails).
    setVerbose(false);
    const ReplayKernel kernel =
        state.range(0) == 0 ? ReplayKernel::Scalar : ReplayKernel::Avx2;
    if (!replayKernelUsable(kernel)) {
        state.SkipWithError("replay kernel not usable on this host");
        return;
    }
    const size_t k_points = static_cast<size_t>(state.range(1));
    const ModelConfig model = zoo::gpt3_175b();
    const ClusterSpec cluster = makeCluster(1024);
    const ParallelConfig plan = gpt3Plan();
    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    BuildOptions options;
    options.n_micro_override = 2 * plan.pipeline + 2; // fast-mode cap
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    const OpGraph ops = builder.build(options);
    TaskGraph expanded;
    const auto tmpl =
        GraphTemplate::capture(ops, table, ExpandOptions{}, &expanded);
    const ReplaySchedule &schedule = tmpl->schedule(); // build once

    std::vector<std::vector<double>> sets(k_points);
    for (size_t k = 0; k < k_points; ++k) {
        if (!tmpl->retimeDurations(table, plan, cluster, comm,
                                   &sets[k])) {
            state.SkipWithError("retime rejected the table");
            return;
        }
        // Perturb per lane so no kernel can shortcut equal columns.
        for (size_t i = 0; i < sets[k].size(); ++i)
            sets[k][i] *= 1.0 + 0.015625 * ((k + i) % 5);
    }
    for (auto _ : state) {
        std::vector<EngineResult> results =
            replayBatch(schedule, sets, kernel);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k_points));
    state.counters["tasks"] = static_cast<double>(tmpl->numTasks());
    state.counters["points"] = static_cast<double>(k_points);
}
// The SIMD acceptance metric: the same K columns through each
// compiled kernel.  Widths cross the 4-wide AVX2 body and the scalar
// remainders.
BENCHMARK(BM_ReplayKernel)
    ->ArgsProduct({{0, 1}, {4, 16, 64}})
    ->Unit(benchmark::kMillisecond);

void
BM_ExactVsFast(benchmark::State &state)
{
    setVerbose(false);
    const ModelConfig model = zoo::scaled18_4b();
    SimOptions options;
    options.fast_mode = state.range(0) != 0;
    Simulator sim(makeCluster(256), options);
    ParallelConfig plan;
    plan.tensor = 8;
    plan.data = 16;
    plan.pipeline = 2;
    plan.micro_batch_size = 1;
    plan.global_batch_size = 1024;
    for (auto _ : state) {
        SimulationResult r = sim.simulateIteration(model, plan);
        benchmark::DoNotOptimize(r.iteration_seconds);
    }
}
// Ablation: affine micro-batch extrapolation vs exact simulation.
BENCHMARK(BM_ExactVsFast)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void
BM_ExplorerSweep(benchmark::State &state)
{
    setVerbose(false);
    const ModelConfig model = zoo::scaled3_6b();
    const ClusterSpec cluster = makeCluster(64);
    SweepSpec spec;
    spec.global_batch_size = 512;
    spec.max_data = 16;
    const auto plans = enumeratePlans(model, cluster, spec);
    // reuse=1 holds one Explorer across iterations: its SimService
    // keeps the worker pool (no per-sweep thread spawn) and the
    // result cache (repeat sweeps answer without simulating).
    // reuse=0 rebuilds the Explorer each sweep, the pre-serve-layer
    // behaviour.
    const bool reuse = state.range(0) != 0;
    Explorer persistent(cluster, SimOptions{}, 2);
    if (reuse) // steady-state repeat-sweep cost, not the first fill
        (void)persistent.sweep(model, plans);
    for (auto _ : state) {
        if (reuse) {
            auto results = persistent.sweep(model, plans);
            benchmark::DoNotOptimize(results.data());
        } else {
            Explorer fresh(cluster, SimOptions{}, 2);
            auto results = fresh.sweep(model, plans);
            benchmark::DoNotOptimize(results.data());
        }
    }
    state.counters["plans"] = static_cast<double>(plans.size());
}
// Wall time: the sweep blocks on pool workers, so CPU time of the
// calling thread is near zero.  Fixed iteration count: one function
// call, so the primed explorer is not rebuilt by harness calibration.
BENCHMARK(BM_ExplorerSweep)
    ->Arg(1)
    ->Arg(0)
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_NcclTableLookup(benchmark::State &state)
{
    const NcclLatencyTable table(dgxA100Node());
    double bytes = 1e6;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.allReduceSeconds(8, bytes));
        bytes = bytes < 1e9 ? bytes * 1.7 : 1e6;
    }
}
BENCHMARK(BM_NcclTableLookup);

} // namespace

BENCHMARK_MAIN();
