/**
 * @file
 * Benchmark driver entry point.
 *
 *   perfbench --workload mtnlg_dse|mtnlg_batch|serve_mixed --seed N
 *             --seconds S --trace 0|1 [--smoke]
 *             [--dse-threads 1] [--batch-threads 2]
 *             [--serve-threads 2] [--client-threads 2]
 *             [--open-connections 8]
 *
 * Prints a human-readable report and, as the last line, the JSON
 * result {"correct", "attempted", "failed", "metrics"}: end-to-end
 * metrics with --trace 0, the per-layer ledger's metrics with
 * --trace 1.  perfbench/run.py builds this binary and forwards to it.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "common.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricSpec {
    const char *name;
    const char *unit;
};

// Must match BENCHMARK.json (run.py --smoke checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"plans_per_s", "1/s"},
    {"cpu_ms_per_plan", "ms"}, {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},        {"p95_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"explore.enumerate_ms", "ms"},
    {"explore.groups", "count"},
    {"explore.plans_per_group", "count"},
    {"graph.build_ms", "ms"},
    {"graph.capture_ms", "ms"},
    {"graph.schedule_ms", "ms"},
    {"graph.template_evictions", "count"},
    {"graph.tasks_per_topology", "count"},
    {"graph.template_hit_rate", "ratio"},
    {"graph.captures_wasted", "count"},
    {"profiling.profiler_calls", "count"},
    {"profiling.distinct_ops", "count"},
    {"profiling.profile_ms", "ms"},
    {"sim.queue_ms", "ms"},
    {"sim.retime_us_per_plan", "us"},
    {"sim.replay_us_per_point", "us"},
    {"sim.replay_tasks_per_s", "1/s"},
    {"sim.queue_runs", "count"},
    {"sim.replay_runs", "count"},
    {"sim.batched_points", "count"},
    {"serve.evaluate_hit_us", "us"},
    {"serve.evaluate_miss_ms", "ms"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.inflight_joins", "count"},
    {"wire.decode_request_us", "us"},
    {"wire.encode_result_us", "us"},
    {"wire.encode_request_us", "us"},
    {"wire.decode_result_us", "us"},
    {"wire.request_bytes", "bytes"},
    {"wire.response_bytes", "bytes"},
    {"admission.admitted", "count"},
    {"admission.shed", "count"},
    {"net.healthz_rtt_us", "us"},
    {"net.hit_overhead_us", "us"},
    {"net.connects", "count"},
    {"net.gen_late_p99_ms", "ms"},
    {"pool.cpu_per_wall", "ratio"},
    {"pool.migrations", "count"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "mtnlg_dse|mtnlg_batch|serve_mixed --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--dse-threads N] "
                 "[--batch-threads N] [--serve-threads N] "
                 "[--client-threads N] [--open-connections N]\n",
                 why);
    std::exit(2);
}

size_t
positive(const char *flag, const char *value)
{
    char *end = nullptr;
    const long v = std::strtol(value, &end, 10);
    if (!end || *end != '\0' || v <= 0)
        usage((std::string(flag) + " needs a positive integer").c_str());
    return static_cast<size_t>(v);
}

Args
parse(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = static_cast<double>(positive("--seconds", value));
        else if (flag == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--dse-threads")
            args.dse_threads = positive("--dse-threads", value);
        else if (flag == "--batch-threads")
            args.batch_threads = positive("--batch-threads", value);
        else if (flag == "--serve-threads")
            args.serve_threads = positive("--serve-threads", value);
        else if (flag == "--client-threads")
            args.client_threads = positive("--client-threads", value);
        else if (flag == "--open-connections")
            args.open_connections = positive("--open-connections", value);
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

/**
 * Orders the report's metrics as the benchmark lists them.  A
 * per-layer metric of a layer the workload does not run through is
 * reported as 0 (its note says which); an end-to-end metric must
 * always be measured.
 */
bool
normalize(const Args &args, Report &report)
{
    std::vector<Report::Metric> ordered;
    std::set<std::string> missing;
    const auto take = [&](const MetricSpec &spec, bool required) {
        for (const Report::Metric &m : report.metrics) {
            if (m.name == spec.name) {
                ordered.push_back({m.name, m.value, spec.unit});
                return;
            }
        }
        if (required)
            missing.insert(spec.name);
        ordered.push_back({spec.name, 0.0, spec.unit});
    };
    if (args.trace)
        for (const MetricSpec &spec : kPerLayer)
            take(spec, false);
    else
        for (const MetricSpec &spec : kEndToEnd)
            take(spec, true);
    report.metrics = std::move(ordered);
    for (const std::string &name : missing)
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     name.c_str());
    return missing.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    vtrain::setVerbose(false);
    const Args args = parse(argc, argv);
    Report report;
    if (args.workload == "mtnlg_dse")
        report = perfbench::runMtnlgDse(args);
    else if (args.workload == "mtnlg_batch")
        report = perfbench::runMtnlgBatch(args);
    else if (args.workload == "serve_mixed")
        report = perfbench::runServeMixed(args);
    else
        usage(("unknown workload " + args.workload).c_str());
    if (!normalize(args, report))
        return 1;
    return perfbench::printReport(args, report);
}
