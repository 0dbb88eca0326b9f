/**
 * @file
 * The design-space-exploration workloads.
 *
 * mtnlg_dse is the cold path: the paper's MT-NLG 530B space (Table I,
 * Fig. 10) on 2048 A100s, swept by a fresh single-threaded Explorer
 * per pass.  Its ~43 topologies overflow the 32-entry template cache,
 * so graph build, capture, profiling and the queue engine dominate.
 *
 * mtnlg_batch is the replay path: the p <= 35 plans crossed with
 * seed-drawn global batch sizes, 512 points in 8 structural groups, on
 * a fresh 2-thread Explorer per pass (parallel retimes through
 * ThreadPool::startFor).  Retime and the K-wide replayBatch dominate.
 * It is runnable but not gated by BENCHMARK.json (see workloads.h).
 *
 * A run starts with one untimed warm-up pass (its first-pass page
 * faults and heap growth made it up to 2x slower than the rest), then
 * times passes for --seconds.  Every figure is a median over the timed
 * passes.  A sweep answers all of its plans when it returns, so within
 * a pass every plan's answer latency is the pass's wall time: p50_ms
 * and p95_ms are both the median pass time on these workloads.  Each
 * pass submits the plans in its own seeded order, so the run's peak
 * RSS (templates alive at once depend on the order) is a maximum over
 * several orders.
 */
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "common.h"
#include "cost/cost_model.h"
#include "explore/design_space.h"
#include "explore/explorer.h"
#include "model/zoo.h"
#include "replica.h"
#include "sim/engine.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

using namespace vtrain;

namespace {

enum class Kind { Dse, Batch };

/** Inputs of one pass, built by the timed set-up. */
struct Inputs {
    ModelConfig model;
    ClusterSpec cluster;
    SimOptions options;
    double tokens = 270e9;
    std::vector<ParallelConfig> plans; //!< submission order
    std::vector<size_t> canonical;     //!< canonical index of plans[i]
};

SweepSpec
mtnlgSpec(int max_pipeline, bool smoke)
{
    SweepSpec spec;
    spec.global_batch_size = 1920;
    spec.max_tensor = 8;
    spec.max_data = 32;
    spec.max_pipeline = max_pipeline;
    spec.micro_batch_sizes = {1, 2};
    spec.max_gpus = 2048;
    if (smoke) {
        spec.max_data = 4;
        spec.max_pipeline = std::min(max_pipeline, 35);
    }
    return spec;
}

/**
 * Enumerates and orders the pass's plans.  mtnlg_dse: the whole space
 * in a seeded order.  mtnlg_batch: every base plan crossed with
 * distinct seeded global-batch multipliers k in [4, 64] (gbs = 1920k
 * keeps every plan divisible and in fast mode, so the 512 points stay
 * in the base plans' structural groups), in a seeded order.
 */
Inputs
buildInputs(Kind kind, uint64_t seed, int pass, bool smoke, Ledger *ledger)
{
    Inputs in;
    in.model = zoo::mtNlg530b();
    in.cluster = makeCluster(2048);
    std::vector<ParallelConfig> space;
    {
        Ledger::Span span(ledger, "explore.enumerate");
        space = enumeratePlans(in.model, in.cluster,
                               mtnlgSpec(kind == Kind::Dse ? 105 : 35,
                                         smoke));
    }
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 7);
    std::vector<ParallelConfig> points;
    if (kind == Kind::Dse) {
        points = space;
    } else {
        const size_t n_points = smoke ? 48 : 512;
        const size_t per_base =
            (n_points + space.size() - 1) / space.size();
        std::vector<std::vector<int>> multipliers(space.size());
        for (auto &ks : multipliers) {
            ks.resize(61);
            std::iota(ks.begin(), ks.end(), 4);
            std::shuffle(ks.begin(), ks.end(), rng);
            ks.resize(per_base);
        }
        for (size_t i = 0; i < n_points; ++i) {
            const size_t b = i % space.size();
            ParallelConfig plan = space[b];
            plan.global_batch_size = 1920 * multipliers[b][i / space.size()];
            points.push_back(plan);
        }
    }
    std::vector<size_t> order(points.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::mt19937_64 order_rng(seed * 0xd1b54a32d192ed03ull + 31 * pass + 1);
    std::shuffle(order.begin(), order.end(), order_rng);
    for (size_t i : order) {
        in.plans.push_back(points[i]);
        in.canonical.push_back(i);
    }
    return in;
}

/** One untraced pass, timed in two parts like a user sees it. */
struct Pass {
    double setup_s = 0.0;
    double wall_s = 0.0; //!< sweep + costing + cheapest pick
    double cpu_s = 0.0;
    std::vector<SimulationResult> sims; //!< canonical order
    size_t cheapest = 0;                //!< canonical index
    ServiceStats stats;
};

size_t
cheapestOf(const Inputs &in, const std::vector<SimulationResult> &sims)
{
    const CostModel cost;
    size_t best = 0;
    double best_dollars = 0.0;
    for (size_t i = 0; i < sims.size(); ++i) {
        const ParallelConfig &plan = in.plans[i];
        const double dollars =
            cost.evaluate(in.model, plan, sims[i], in.tokens).total_dollars;
        if (i == 0 || dollars < best_dollars ||
            (dollars == best_dollars && in.canonical[i] < in.canonical[best])) {
            best = i;
            best_dollars = dollars;
        }
    }
    return in.canonical[best];
}

std::vector<SimulationResult>
toCanonical(const Inputs &in, std::vector<SimulationResult> sims)
{
    std::vector<SimulationResult> out(sims.size());
    for (size_t i = 0; i < sims.size(); ++i)
        out[in.canonical[i]] = std::move(sims[i]);
    return out;
}

Pass
runPass(Kind kind, const Args &args, int index, size_t threads, Inputs *kept)
{
    Pass pass;
    const double t0 = nowSeconds();
    Explorer explorer(makeCluster(2048), SimOptions{}, threads);
    Inputs in = buildInputs(kind, args.seed, index, args.smoke, nullptr);
    const double t1 = nowSeconds();
    const double c1 = processCpuSeconds();
    std::vector<ExploreResult> results = explorer.sweep(in.model, in.plans);
    std::vector<SimulationResult> sims(results.size());
    for (size_t i = 0; i < results.size(); ++i)
        sims[i] = std::move(results[i].sim);
    const size_t cheapest = cheapestOf(in, sims);
    const double t2 = nowSeconds();
    pass.cpu_s = processCpuSeconds() - c1;
    pass.setup_s = t1 - t0;
    pass.wall_s = t2 - t1;
    pass.cheapest = cheapest;
    pass.sims = toCanonical(in, std::move(sims));
    pass.stats = explorer.service().stats();
    if (kept)
        *kept = std::move(in);
    return pass;
}

/** Set-up alone (Explorer + inputs), as runPass times it. */
double
setupOnly(Kind kind, const Args &args, int index, size_t threads)
{
    const double t0 = nowSeconds();
    Explorer explorer(makeCluster(2048), SimOptions{}, threads);
    Inputs in = buildInputs(kind, args.seed, index, args.smoke, nullptr);
    const double t1 = nowSeconds();
    return in.plans.empty() ? 0.0 : t1 - t0;
}

uint64_t
digestOf(const std::vector<SimulationResult> &sims)
{
    Digest d;
    for (const SimulationResult &r : sims)
        d.add(r);
    return d.value();
}

/**
 * Re-simulates a seeded sample of plans through the template-less
 * simulator (graph build + queue engine every time: the oracle the
 * template and replay paths are tested against) into `counts`.
 */
void
oracleCheck(const Inputs &in, const std::vector<SimulationResult> &canon,
            uint64_t seed, size_t samples, PhaseCounts *counts)
{
    Simulator oracle(in.cluster, in.options, nullptr);
    std::mt19937_64 rng(seed ^ 0x5bd1e995u);
    std::vector<size_t> order(in.plans.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t s = 0; s < std::min(samples, order.size()); ++s) {
        const size_t i = order[s];
        const SimulationResult ref =
            oracle.simulateIteration(in.model, in.plans[i]);
        ++counts->attempted;
        if (sameResult(ref, canon[in.canonical[i]]))
            ++counts->succeeded;
        else
            ++counts->mismatch;
    }
}

void
addNotes(Report &report, const Inputs &in,
         const std::vector<SimulationResult> &canon,
         size_t cheapest, uint64_t digest)
{
    std::vector<uint64_t> keys;
    for (const ParallelConfig &plan : in.plans)
        keys.push_back(batchGroupKey(in.model, plan, in.cluster, in.options));
    std::sort(keys.begin(), keys.end());
    const size_t groups =
        std::unique(keys.begin(), keys.end()) - keys.begin();
    char line[256];
    std::snprintf(line, sizeof line,
                  "%zu plans in %zu batch groups; digest %016llx; cheapest "
                  "plan %s (iteration %.3f s)",
                  in.plans.size(), groups,
                  static_cast<unsigned long long>(digest),
                  [&] {
                      for (size_t i = 0; i < in.plans.size(); ++i)
                          if (in.canonical[i] == cheapest)
                              return in.plans[i].brief();
                      return std::string("?");
                  }()
                      .c_str(),
                  canon[cheapest].iteration_seconds);
    report.note(line);
}

Report
runUntraced(Kind kind, const Args &args, size_t threads)
{
    Report report;
    report.workload = kind == Kind::Dse ? "mtnlg_dse" : "mtnlg_batch";
    PhaseCounts sweep_counts;
    std::vector<double> setups;
    std::vector<Pass> passes;
    Inputs in;
    // Pass 0 warms the process up (heap growth, first page faults) and
    // is the reference answer; it is checked but not timed.  At least
    // two timed passes follow.
    double measured = 0.0;
    while (passes.size() < 3 || measured < args.seconds) {
        passes.push_back(runPass(kind, args, static_cast<int>(passes.size()),
                                 threads, passes.empty() ? &in : nullptr));
        if (passes.size() == 1)
            continue;
        measured += passes.back().setup_s + passes.back().wall_s;
        setups.push_back(passes.back().setup_s);
        if (args.smoke)
            break;
    }
    // Set-up is sub-millisecond (thread spawn + enumeration), so the
    // run repeats it and reports the median of many.
    constexpr size_t kSetupReps = 301;
    while (setups.size() < kSetupReps)
        setups.push_back(setupOnly(kind, args,
                                   static_cast<int>(setups.size()), threads));

    // Checks, outside the timed region: every pass answers the same,
    // with the same cheapest plan; a seeded sample matches the oracle.
    const uint64_t digest = digestOf(passes.front().sims);
    std::vector<double> cpu_ms, pass_ms;
    for (const Pass &pass : passes) {
        const size_t n = pass.sims.size();
        sweep_counts.attempted += n;
        if (digestOf(pass.sims) == digest &&
            pass.cheapest == passes.front().cheapest) {
            sweep_counts.succeeded += n;
        } else {
            for (size_t i = 0; i < n; ++i) {
                if (sameResult(pass.sims[i], passes.front().sims[i]))
                    ++sweep_counts.succeeded;
                else
                    ++sweep_counts.mismatch;
            }
            if (pass.cheapest != passes.front().cheapest)
                ++report.check_failures;
        }
        if (&pass == &passes.front())
            continue;
        cpu_ms.push_back(pass.cpu_s * 1e3 / static_cast<double>(n));
        pass_ms.push_back(pass.wall_s * 1e3);
    }
    report.phases["sweep"] = sweep_counts;
    PhaseCounts oracle_counts;
    oracleCheck(in, passes.front().sims, args.seed,
                args.smoke ? 2 : (kind == Kind::Dse ? 4 : 6), &oracle_counts);
    report.phases["oracle"] = oracle_counts;
    addNotes(report, in, passes.front().sims, passes.front().cheapest, digest);
    std::string line = "warm-up " +
                       std::to_string(static_cast<long>(
                           passes.front().wall_s * 1e3 + 0.5)) +
                       " ms; " + std::to_string(pass_ms.size()) +
                       " timed passes (ms):";
    for (double ms : pass_ms) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.0f", ms);
        line += buf;
    }
    report.note(line + "; " + std::to_string(setups.size()) + " set-ups");

    const double pass_median_ms = median(pass_ms);
    report.metric("setup_s", median(setups), "s");
    report.metric("plans_per_s",
                  static_cast<double>(in.plans.size()) * 1e3 / pass_median_ms,
                  "1/s");
    report.metric("cpu_ms_per_plan", median(cpu_ms), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("p50_ms", pass_median_ms, "ms");
    report.metric("p95_ms", pass_median_ms, "ms");
    return report;
}

/**
 * Traced run, repeated for --seconds: one Explorer::sweep pass (the
 * reference answers and the service counters), one pass through the
 * replica's layer calls without spans (the overhead's base) and one
 * with spans, all over the same inputs.  The spanned replica's digest
 * and cheapest plan must equal the library's.
 */
Report
runTraced(Kind kind, const Args &args, size_t threads)
{
    Report report;
    report.workload = kind == Kind::Dse ? "mtnlg_dse" : "mtnlg_batch";
    Ledger ledger;
    PhaseCounts counts;
    ReplicaCounts totals;
    double untraced_wall = 0.0, traced_wall = 0.0;
    double library_wall = 0.0, library_cpu = 0.0;
    ServiceStats stats;
    uint64_t wasted = 0, evictions = 0;
    int pairs = 0;
    Inputs in;
    const double start = nowSeconds();
    while (pairs == 0 || (!args.smoke && nowSeconds() - start < args.seconds)) {
        Pass ref =
            runPass(kind, args, pairs, threads, pairs == 0 ? &in : nullptr);
        library_wall += ref.setup_s + ref.wall_s;
        library_cpu += ref.cpu_s;

        // The same layer path without spans: the tracing overhead's base.
        {
            GraphTemplateCache templates;
            ReplicaContext plain{makeCluster(2048), SimOptions{}, &templates,
                                 nullptr, {}};
            const double t0 = nowSeconds();
            const Inputs plain_in =
                buildInputs(kind, args.seed, pairs, args.smoke, nullptr);
            const std::vector<SimulationResult> sims =
                replicaSweep(plain, plain_in.model, plain_in.plans);
            cheapestOf(plain_in, sims);
            untraced_wall += nowSeconds() - t0;
        }

        GraphTemplateCache templates;
        ReplicaContext ctx{makeCluster(2048), SimOptions{}, &templates,
                           &ledger, {}};
        const double t0 = nowSeconds();
        std::vector<SimulationResult> sims;
        size_t cheapest = 0;
        Inputs traced_in;
        {
            Ledger::Span root(&ledger, "pass");
            traced_in =
                buildInputs(kind, args.seed, pairs, args.smoke, &ledger);
            sims = replicaSweep(ctx, traced_in.model, traced_in.plans);
            Ledger::Span span(&ledger, "cost.evaluate");
            cheapest = cheapestOf(traced_in, sims);
        }
        traced_wall += nowSeconds() - t0;
        const std::vector<SimulationResult> canon =
            toCanonical(traced_in, std::move(sims));

        counts.attempted += canon.size();
        const bool same = digestOf(canon) == digestOf(ref.sims) &&
                          cheapest == ref.cheapest;
        if (same)
            counts.succeeded += canon.size();
        else
            counts.mismatch += canon.size();

        stats = ref.stats;
        const uint64_t misses = ref.stats.graph_templates.misses;
        const uint64_t distinct = ctx.counts.fingerprints.size();
        wasted += misses > distinct ? misses - distinct : 0;
        evictions += ref.stats.graph_templates.evictions;
        totals.groups += ctx.counts.groups;
        totals.captures += ctx.counts.captures;
        totals.capture_tasks += ctx.counts.capture_tasks;
        totals.retimes += ctx.counts.retimes;
        totals.replay_points += ctx.counts.replay_points;
        totals.replay_tasks += ctx.counts.replay_tasks;
        totals.profiler_calls += ctx.counts.profiler_calls;
        totals.table_entries += ctx.counts.table_entries;
        ++pairs;
        if (pairs == 1)
            addNotes(report, traced_in, canon, cheapest, digestOf(canon));
    }
    report.phases["traced_sweep"] = counts;
    ledger.print(report.workload + " (layer path on 1 thread)", traced_wall,
                 untraced_wall);
    char line[160];
    std::snprintf(line, sizeof line,
                  "library path (Explorer::sweep, %zu threads): %.3f ms for "
                  "the same passes",
                  threads, library_wall * 1e3);
    report.note(line);
    report.note("digest of the spanned layer path " +
                std::string(counts.mismatch == 0 ? "equals" : "DIFFERS FROM") +
                " Explorer::sweep's (" + std::to_string(pairs) + " pairs)");

    const double np = pairs;
    const auto per_pass_ms = [&](const char *span) {
        return ledger.selfSeconds(span) * 1e3 / np;
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double plans = static_cast<double>(in.plans.size());
    report.metric("explore.enumerate_ms", per_pass_ms("explore.enumerate"),
                  "ms");
    report.metric("explore.groups", totals.groups / np, "count");
    report.metric("explore.plans_per_group", ratio(plans * np, totals.groups),
                  "count");
    report.metric("graph.build_ms", per_pass_ms("graph.build"), "ms");
    report.metric("graph.capture_ms", per_pass_ms("graph.capture"), "ms");
    report.metric("graph.schedule_ms", per_pass_ms("graph.schedule"), "ms");
    report.metric("graph.template_evictions", evictions / np, "count");
    report.metric("graph.tasks_per_topology",
                  ratio(totals.capture_tasks, totals.captures), "count");
    report.metric("graph.template_hit_rate", stats.graph_templates.hitRate(),
                  "ratio");
    report.metric("graph.captures_wasted", wasted / np, "count");
    report.metric("profiling.profiler_calls", totals.profiler_calls / np,
                  "count");
    report.metric("profiling.distinct_ops", totals.table_entries / np, "count");
    report.metric("profiling.profile_ms", per_pass_ms("profiling.profile"),
                  "ms");
    report.metric("sim.queue_ms", per_pass_ms("sim.queue"), "ms");
    report.metric("sim.retime_us_per_plan",
                  ratio(ledger.selfSeconds("sim.retime") * 1e6, totals.retimes),
                  "us");
    report.metric("sim.replay_us_per_point",
                  ratio(ledger.selfSeconds("sim.replay") * 1e6,
                        totals.replay_points),
                  "us");
    report.metric("sim.replay_tasks_per_s",
                  ratio(totals.replay_tasks, ledger.selfSeconds("sim.replay")),
                  "1/s");
    report.metric("sim.queue_runs", stats.engine.queue_runs, "count");
    report.metric("sim.replay_runs", stats.engine.replay_runs, "count");
    report.metric("sim.batched_points", stats.engine.batched_points, "count");
    report.metric("serve.cache_hit_rate", stats.cache.hitRate(), "ratio");
    report.metric("serve.inflight_joins", stats.inflight_joins, "count");
    report.metric("pool.cpu_per_wall", ratio(library_cpu, library_wall),
                  "ratio");
    report.metric("pool.migrations", stats.pool.migrations, "count");
    report.note("wire.*, admission.*, net.* and serve.evaluate_*: not on "
                "the sweep path, reported as 0");
    return report;
}

} // namespace

Report
runMtnlgDse(const Args &args)
{
    return args.trace ? runTraced(Kind::Dse, args, args.dse_threads)
                      : runUntraced(Kind::Dse, args, args.dse_threads);
}

Report
runMtnlgBatch(const Args &args)
{
    return args.trace ? runTraced(Kind::Batch, args, args.batch_threads)
                      : runUntraced(Kind::Batch, args, args.batch_threads);
}

} // namespace perfbench
