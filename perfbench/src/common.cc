#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "sim/engine.h"
#include "util/build_info.h"
#include "util/cpu_features.h"

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const size_t n = values.size();
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

uint64_t
mixInto(uint64_t state, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        state ^= (v >> (8 * i)) & 0xffu;
        state *= 0x100000001b3ull;
    }
    return state;
}

} // namespace

void
Digest::add(const vtrain::SimulationResult &r)
{
    const auto d = [this](double v) {
        state_ = mixInto(state_, std::bit_cast<uint64_t>(v));
    };
    const auto u = [this](uint64_t v) { state_ = mixInto(state_, v); };
    d(r.iteration_seconds);
    d(r.utilization);
    d(r.model_flops);
    d(r.bubble_fraction);
    for (double t : r.time_by_tag)
        d(t);
    u(r.num_operators);
    u(r.num_tasks);
    u(r.distinct_operators_profiled);
    u(r.profiler_calls);
    u(r.extrapolated ? 1 : 0);
    u(static_cast<uint64_t>(r.simulated_micro_batches));
    u(static_cast<uint64_t>(r.total_micro_batches));
}

bool
sameResult(const vtrain::SimulationResult &a,
           const vtrain::SimulationResult &b)
{
    vtrain::SimulationResult x = a;
    x.sim_wall_seconds = b.sim_wall_seconds;
    return x == b;
}

void
PhaseCounts::merge(const PhaseCounts &o)
{
    attempted += o.attempted;
    succeeded += o.succeeded;
    transport += o.transport;
    non_2xx += o.non_2xx;
    decode += o.decode;
    mismatch += o.mismatch;
}

Ledger::Span::Span(Ledger *ledger, const char *name)
    : ledger_(ledger), index_(0)
{
    if (!ledger_)
        return;
    index_ = ledger_->stack_.size();
    ledger_->stack_.push_back({name, nowSeconds(), 0.0});
}

Ledger::Span::~Span()
{
    if (!ledger_)
        return;
    const double end = nowSeconds();
    Open open = std::move(ledger_->stack_[index_]);
    ledger_->stack_.pop_back();
    const double duration = end - open.start;
    Row &row = ledger_->rows_[open.name];
    ++row.count;
    row.total_s += duration;
    row.self_s += std::max(0.0, duration - open.child_s);
    if (!ledger_->stack_.empty())
        ledger_->stack_.back().child_s += duration;
}

const Ledger::Row &
Ledger::row(const std::string &name) const
{
    static const Row empty;
    const auto it = rows_.find(name);
    return it == rows_.end() ? empty : it->second;
}

double
Ledger::attributedSeconds() const
{
    double sum = 0.0;
    for (const auto &[name, row] : rows_)
        sum += row.self_s;
    return sum;
}

void
Ledger::print(const std::string &title, double traced_wall_s,
              double untraced_wall_s) const
{
    std::printf("\nper-layer ledger: %s\n", title.c_str());
    std::printf("  %-28s %10s %12s %12s %7s\n", "span", "count",
                "total_ms", "self_ms", "self%");
    for (const auto &[name, row] : rows_)
        std::printf("  %-28s %10llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(row.count),
                    row.total_s * 1e3, row.self_s * 1e3,
                    traced_wall_s > 0 ? 100.0 * row.self_s / traced_wall_s
                                      : 0.0);
    const double attributed = attributedSeconds();
    std::printf("  %-28s %10s %12s %12.3f %6.1f%%\n",
                "(unattributed: driver loop)", "", "",
                (traced_wall_s - attributed) * 1e3,
                traced_wall_s > 0
                    ? 100.0 * (traced_wall_s - attributed) / traced_wall_s
                    : 0.0);
    if (untraced_wall_s < 0) {
        std::printf("  coverage %.1f%% of %.3f ms traced wall\n",
                    traced_wall_s > 0 ? 100.0 * attributed / traced_wall_s
                                      : 0.0,
                    traced_wall_s * 1e3);
        return;
    }
    std::printf("  coverage %.1f%% of %.3f ms traced wall; tracing "
                "overhead %+.3f ms (%+.2f%%) vs %.3f ms untraced\n",
                traced_wall_s > 0 ? 100.0 * attributed / traced_wall_s : 0.0,
                traced_wall_s * 1e3,
                (traced_wall_s - untraced_wall_s) * 1e3,
                untraced_wall_s > 0
                    ? 100.0 * (traced_wall_s - untraced_wall_s) /
                          untraced_wall_s
                    : 0.0,
                untraced_wall_s * 1e3);
}

std::string
fmtNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

int
printReport(const Args &args, const Report &report)
{
    const vtrain::util::BuildInfo &build = vtrain::util::buildInfo();
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    std::printf("\ncontext: {\"nproc\": %ld, \"cpu_model\": \"%s\", "
                "\"cpu_features\": \"%s\", \"replay_kernel\": \"%s\", "
                "\"build_type\": \"%s\", \"dse_threads\": %zu, "
                "\"batch_threads\": %zu, \"serve_threads\": %zu, "
                "\"client_threads\": %zu, \"open_connections\": %zu, "
                "\"seed\": %llu, "
                "\"seconds\": %s, \"trace\": %d, \"commit\": \"%s\"}\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                jsonEscape(cpuModel()).c_str(),
                jsonEscape(vtrain::util::cpuFeatureSummary()).c_str(),
                vtrain::replayKernelName(vtrain::activeReplayKernel()),
                build.build_type, args.dse_threads, args.batch_threads,
                args.serve_threads, args.client_threads,
                args.open_connections,
                static_cast<unsigned long long>(args.seed),
                fmtNumber(args.seconds).c_str(), args.trace ? 1 : 0,
                jsonEscape(commit ? commit : build.git_describe).c_str());

    PhaseCounts total;
    std::printf("\nphases: %-14s %10s %10s %9s %8s %7s %9s\n", "",
                "attempted", "succeeded", "transport", "non_2xx",
                "decode", "mismatch");
    for (const auto &[name, c] : report.phases) {
        std::printf("        %-14s %10llu %10llu %9llu %8llu %7llu %9llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(c.attempted),
                    static_cast<unsigned long long>(c.succeeded),
                    static_cast<unsigned long long>(c.transport),
                    static_cast<unsigned long long>(c.non_2xx),
                    static_cast<unsigned long long>(c.decode),
                    static_cast<unsigned long long>(c.mismatch));
        total.merge(c);
    }
    for (const std::string &line : report.notes)
        std::printf("note: %s\n", line.c_str());

    const uint64_t failed = total.failed() + report.check_failures;
    const uint64_t attempted = std::max<uint64_t>(total.attempted, 1);
    const bool correct = failed == 0 && total.attempted > 0;

    std::printf("\n%s metrics (%s):\n", report.workload.c_str(),
                args.trace ? "per-layer, traced run" : "end-to-end");
    for (const Report::Metric &m : report.metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("correct=%s attempted=%llu failed=%llu\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Report::Metric &m = report.metrics[i];
        if (i > 0)
            json += ", ";
        json += "\"" + m.name + "\": {\"value\": " + fmtNumber(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace perfbench
