/**
 * @file
 * The mixed HTTP serving workload.
 *
 * An in-process HttpFrontend on an ephemeral loopback port serves a
 * SimService.  The hot set is 256 GPT-3 175B / 1024-GPU requests over
 * 12 structural topologies (24 templates in fast mode, inside the
 * 32-entry template cache: a hot set over more topologies thrashes it
 * and turns every miss into a capture).  Arrivals are 90% hot-set hits
 * drawn from a seeded Zipf popularity and 10% misses; a miss is a hot
 * plan with a global batch size never sent before, so it re-times and
 * replays a warm template, then writes to the result cache.
 *
 * Phase a: open loop, Poisson arrivals at a fixed rate split over the
 * generator's connections, latency timed from each request's due time
 * (so a stall also charges the requests queued behind it).  Phase b:
 * closed loop, one request in flight per connection; its completion
 * rate is the saturation throughput.  On this workload plans_per_s is
 * that rate (each /v1/evaluate answers one plan) and p50_ms / p95_ms
 * are phase a's latencies.  With 10% misses, p95 is the typical miss
 * (retime + replay) and p50 a hit; p99, the slow tenth of misses, is
 * printed but not gated: host contention moved it 2.9-15 ms between
 * identical runs.
 */
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <unistd.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "common.h"
#include "explore/design_space.h"
#include "model/zoo.h"
#include "net/http_client.h"
#include "replica.h"
#include "serve/http_frontend.h"
#include "serve/result_cache.h"
#include "serve/sim_service.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {

using namespace vtrain;

namespace {

constexpr size_t kHotSize = 256;
constexpr size_t kTopologies = 12;
constexpr double kMissShare = 0.10;
/** Open-loop offered rate, all connections: ~1/8 of the closed-loop
 *  saturation rate.  At 2000/s the two pool workers queued misses
 *  behind each other often enough that p99 amplified the host's speed
 *  drift (3.1-5.1 ms between runs, vs 2.9-3.6 ms at this rate). */
constexpr double kOpenLoopRate = 1000.0;
constexpr int kGpus = 1024;
constexpr int kBaseBatch = 1536;
/** Every global batch size is a multiple of this: lcm of d*m over the
 *  enumerated plans (d | 1536, d <= 32, m <= 2), so any k is valid. */
constexpr int kBatchQuantum = 192;
/** Fresh miss batch sizes of stream s: k from 1000 + s * kStreamKs. */
constexpr long long kStreamKs = 40000;

/** The hot set's base plans, grouped by structural topology. */
struct HotSet {
    ModelConfig model;
    ClusterSpec cluster;
    std::vector<std::vector<ParallelConfig>> topologies; //!< base plans
    std::vector<SimRequest> requests; //!< the kHotSize hot requests
    std::vector<double> popularity_cdf;
};

SimRequest
requestFor(const HotSet &hot, const ParallelConfig &plan)
{
    SimRequest request;
    request.model = hot.model;
    request.parallel = plan;
    request.cluster = hot.cluster;
    return request;
}

/**
 * Deterministic topology choice (the same 12 for every seed, smallest
 * pipelines first) and a fixed number of hot requests per topology,
 * so the seed varies traffic, not the cost of the hot set.  The seed
 * picks each hot request's base plan within its topology, its global
 * batch size (192k, k in [16, 215): fast mode for every base, so a
 * fresh k re-times the same template), and the popularity order.
 */
HotSet
buildHotSet(uint64_t seed, bool smoke, Ledger *ledger)
{
    HotSet hot;
    hot.model = zoo::gpt3_175b();
    hot.cluster = makeCluster(kGpus);
    SweepSpec spec;
    spec.global_batch_size = kBaseBatch;
    spec.max_tensor = 8;
    spec.max_data = 32;
    spec.max_pipeline = 16;
    spec.micro_batch_sizes = {1, 2};
    spec.max_gpus = kGpus;
    std::vector<ParallelConfig> space;
    {
        Ledger::Span span(ledger, "explore.enumerate");
        space = enumeratePlans(hot.model, hot.cluster, spec);
    }
    std::stable_sort(space.begin(), space.end(),
                     [](const ParallelConfig &a, const ParallelConfig &b) {
                         if (a.pipeline != b.pipeline)
                             return a.pipeline < b.pipeline;
                         if (a.tensor != b.tensor)
                             return a.tensor < b.tensor;
                         return a.micro_batch_size < b.micro_batch_size;
                     });
    std::vector<uint64_t> keys;
    const size_t want = smoke ? 2 : kTopologies;
    for (const ParallelConfig &plan : space) {
        ParallelConfig probe = plan;
        probe.global_batch_size = kBatchQuantum * 16;
        const uint64_t key =
            batchGroupKey(hot.model, probe, hot.cluster, SimOptions{});
        const size_t t =
            std::find(keys.begin(), keys.end(), key) - keys.begin();
        if (t == keys.size()) {
            if (keys.size() == want)
                continue;
            keys.push_back(key);
            hot.topologies.emplace_back();
        }
        hot.topologies[t].push_back(plan);
    }

    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 11);
    const size_t n_hot = smoke ? 16 : kHotSize;
    std::vector<int> ks(199);
    std::iota(ks.begin(), ks.end(), 16);
    std::vector<std::vector<int>> fresh(hot.topologies.size(), ks);
    for (auto &f : fresh)
        std::shuffle(f.begin(), f.end(), rng);
    for (size_t i = 0; i < n_hot; ++i) {
        const size_t t = i % hot.topologies.size();
        const auto &bases = hot.topologies[t];
        ParallelConfig plan = bases[std::uniform_int_distribution<size_t>(
            0, bases.size() - 1)(rng)];
        plan.global_batch_size = kBatchQuantum * fresh[t].back();
        fresh[t].pop_back();
        hot.requests.push_back(requestFor(hot, plan));
    }
    // Zipf(1) popularity over a seeded rank order.
    std::vector<size_t> rank(n_hot);
    std::iota(rank.begin(), rank.end(), size_t{0});
    std::shuffle(rank.begin(), rank.end(), rng);
    std::vector<double> weight(n_hot);
    for (size_t r = 0; r < n_hot; ++r)
        weight[rank[r]] = 1.0 / static_cast<double>(r + 1);
    hot.popularity_cdf.resize(n_hot);
    std::partial_sum(weight.begin(), weight.end(), hot.popularity_cdf.begin());
    for (double &c : hot.popularity_cdf)
        c /= hot.popularity_cdf.back();
    return hot;
}

/** One generated request: a hot index, or a miss (hot_index < 0). */
struct Arrival {
    int hot_index = -1;
    SimRequest request; //!< filled for misses only
};

/**
 * Seeded traffic source of one generator stream.  Misses draw a
 * topology, a base plan and a global batch size from a per-stream
 * range no other stream, phase or hot request uses, so every miss is
 * fresh.
 */
class Traffic
{
  public:
    Traffic(const HotSet &hot, uint64_t seed, int stream)
        : hot_(hot), rng_(seed * 0xbf58476d1ce4e5b9ull + 97 * stream + 3),
          next_k_(1000 + kStreamKs * stream)
    {
    }

    Arrival next()
    {
        Arrival a;
        if (unit_(rng_) < kMissShare) {
            const auto &bases =
                hot_.topologies[std::uniform_int_distribution<size_t>(
                    0, hot_.topologies.size() - 1)(rng_)];
            ParallelConfig plan = bases[std::uniform_int_distribution<size_t>(
                0, bases.size() - 1)(rng_)];
            plan.global_batch_size =
                static_cast<int>(kBatchQuantum * next_k_++);
            a.request = requestFor(hot_, plan);
            return a;
        }
        const double u = unit_(rng_);
        a.hot_index = static_cast<int>(
            std::lower_bound(hot_.popularity_cdf.begin(),
                             hot_.popularity_cdf.end(), u) -
            hot_.popularity_cdf.begin());
        return a;
    }

    double exponentialGap(double rate)
    {
        return std::exponential_distribution<double>(rate)(rng_);
    }

  private:
    const HotSet &hot_;
    std::mt19937_64 rng_;
    std::uniform_real_distribution<double> unit_{0.0, 1.0};
    long long next_k_;
};

/**
 * CPU layout on hosts with at least 4 CPUs: the server (pool workers
 * and the HTTP event loop) on CPUs 0-1, the generator's connection
 * threads alternating over CPUs 2-3, so the load generator never
 * competes with the server and thread placement is the same in every
 * run.  Unpinned, a virtualized host's cross-CPU wake-ups made
 * loopback round trips vary 30-760 us between identical runs.
 */
bool
pinned()
{
    static const bool ok = sysconf(_SC_NPROCESSORS_ONLN) >= 4;
    return ok;
}

void
pinCurrentThread(std::initializer_list<int> cpus)
{
    if (!pinned())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/**
 * Keeps every CPU out of the idle (halt) state while it lives: one
 * SCHED_IDLE spinner per online CPU, which the kernel preempts the
 * moment a real thread wakes there -- the effect of booting with
 * idle=poll.  On a virtualized host a halted vCPU takes the hypervisor
 * tens to hundreds of microseconds to wake; without the spinners that
 * cost, not the program's, dominated loopback round trips (serve p50
 * 0.17-0.73 ms and p99 3.7-13 ms between identical runs) and thread
 * hand-offs.  workCpuSeconds() excludes the spinners' own CPU time.
 */
class IdleSpinners
{
  public:
    IdleSpinners();
    ~IdleSpinners();
    IdleSpinners(const IdleSpinners &) = delete;
    IdleSpinners &operator=(const IdleSpinners &) = delete;

    /** Process CPU time minus the spinners' own. */
    double workCpuSeconds() const;

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
    std::vector<clockid_t> clocks_;
};

IdleSpinners::IdleSpinners()
{
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    for (long cpu = 0; cpu < cpus; ++cpu)
        threads_.emplace_back([this, cpu] {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(static_cast<int>(cpu), &set);
            pthread_setaffinity_np(pthread_self(), sizeof set, &set);
            sched_param param{};
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
            while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                __builtin_ia32_pause();
#endif
            }
        });
    for (std::thread &t : threads_) {
        clockid_t id;
        if (pthread_getcpuclockid(t.native_handle(), &id) == 0)
            clocks_.push_back(id);
    }
}

IdleSpinners::~IdleSpinners()
{
    stop_.store(true);
    for (std::thread &t : threads_)
        t.join();
}

double
IdleSpinners::workCpuSeconds() const
{
    double cpu = processCpuSeconds();
    for (clockid_t id : clocks_) {
        timespec ts{};
        clock_gettime(id, &ts);
        cpu -= static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
    return cpu;
}

/** A server under test: service + frontend + the warm hot set. */
struct Server {
    std::unique_ptr<SimService> service;
    std::unique_ptr<HttpFrontend> frontend;
    std::vector<std::string> hot_bodies;       //!< encoded hot requests
    std::vector<SimulationResult> hot_answers; //!< in-process answers
    std::vector<std::string> hot_responses;    //!< expected response bytes
    ReplicaCounts warmup;           //!< traced set-up's replica counts
    uint64_t warmup_mismatches = 0; //!< replica != evaluate (traced)
};

/**
 * The timed set-up: service and pool, frontend start and bind, and a
 * serial warm-up of the hot set on the calling thread (a parallel
 * warm-up races duplicate captures of one topology).
 */
std::unique_ptr<Server>
startServer(const HotSet &hot, size_t threads, Ledger *ledger)
{
    auto server = std::make_unique<Server>();
    SimService::Options options;
    options.n_threads = threads;
    if (pinned()) {
        options.pin_threads = true;
        options.pin_cpus = {0, 1};
    }
    server->service = std::make_unique<SimService>(options);
    server->frontend = std::make_unique<HttpFrontend>(*server->service);
    // The event-loop thread inherits the starting thread's CPU mask.
    pinCurrentThread({0, 1});
    std::string error;
    const bool started = server->frontend->start(&error);
    pinCurrentThread({0, 1, 2, 3});
    if (!started) {
        std::fprintf(stderr, "frontend failed to start: %s\n", error.c_str());
        std::exit(3);
    }
    // Traced: each hot request first goes through the replica's
    // spanned layer calls on the service's own template cache (so the
    // set-up ledger shows build, capture, queue engine and profiling),
    // then through SimService::evaluate, which must agree.
    ReplicaContext ctx{hot.cluster, SimOptions{},
                       &server->service->templateCache(), ledger, {}};
    for (const SimRequest &request : hot.requests) {
        SimulationResult replicated;
        if (ledger)
            replicated = replicaSimulate(ctx, request.model, request.parallel);
        {
            Ledger::Span span(ledger, "serve.evaluate_warmup");
            server->hot_answers.push_back(server->service->evaluate(request));
        }
        if (ledger && !sameResult(replicated, server->hot_answers.back()))
            ++server->warmup_mismatches;
        server->hot_bodies.push_back(wire::v1::encode(request).dump());
    }
    server->warmup = std::move(ctx.counts);
    return server;
}

/**
 * A hit's response must be byte-identical to the encoding of its
 * in-process answer; those bytes are checked once here to decode back
 * to the answer, so a byte-equal response decodes and matches.
 */
bool
prepareHitChecks(Server &server)
{
    bool ok = true;
    for (const SimulationResult &answer : server.hot_answers) {
        server.hot_responses.push_back(
            wire::v1::encodeEvaluateResponse(answer));
        SimulationResult back;
        ok = ok && wire::v1::decode(server.hot_responses.back(), &back) &&
             sameResult(back, answer);
    }
    return ok;
}

std::chrono::steady_clock::time_point
steadyPoint(double seconds)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds)));
}

/** One round trip.  Bodies are kept only for misses and for hits
 *  whose bytes differ from the expected response. */
struct Sample {
    int hot_index = -1;
    int status = 0;
    bool transport_ok = false;
    bool hit_bytes_ok = false;
    double due = 0.0;  //!< open loop: scheduled send time
    double sent = 0.0;
    double done = 0.0;
    std::string body;
    std::shared_ptr<SimRequest> miss;
};

/**
 * One generator stream on its own connection, from `start` for
 * `seconds`.  Open loop when `rate` is positive (Poisson due times;
 * a request due while the previous one is in flight waits for it),
 * closed loop otherwise.
 */
std::vector<Sample>
generate(const HotSet &hot, const Server &server, uint64_t seed, int stream,
         double rate, double start, double seconds)
{
    pinCurrentThread({2 + stream % 2});
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    net::HttpClient client("127.0.0.1", server.frontend->port());
    Traffic traffic(hot, seed, stream);
    std::vector<Sample> samples;
    samples.reserve(rate > 0 ? static_cast<size_t>(rate * seconds * 1.5) + 64
                             : 1 << 16);
    double due = start;
    net::HttpResponse response;
    std::string miss_body;
    while (nowSeconds() < start) {
    }
    while (true) {
        if (rate > 0) {
            due += traffic.exponentialGap(rate);
            if (due - start >= seconds)
                break;
            // Sleep to 200 us before the due time, then spin the rest,
            // so the timer's wake-up delay (tens of us, more when the
            // host is contended) does not count as latency.
            std::this_thread::sleep_until(steadyPoint(due - 200e-6));
            while (nowSeconds() < due) {
            }
        } else if (nowSeconds() - start >= seconds) {
            break;
        }
        Sample s;
        const Arrival a = traffic.next();
        s.hot_index = a.hot_index;
        const std::string *body = &miss_body;
        if (a.hot_index >= 0) {
            body = &server.hot_bodies[a.hot_index];
        } else {
            s.miss = std::make_shared<SimRequest>(a.request);
            miss_body = wire::v1::encode(a.request).dump();
        }
        std::string error;
        s.sent = nowSeconds();
        s.transport_ok =
            client.post("/v1/evaluate", *body, &response, &error);
        s.done = nowSeconds();
        s.due = rate > 0 ? due : s.sent;
        s.status = s.transport_ok ? response.status : 0;
        if (s.transport_ok) {
            s.hit_bytes_ok = s.hot_index >= 0 &&
                             response.body == server.hot_responses[s.hot_index];
            if (!s.hit_bytes_ok)
                s.body = std::move(response.body);
        }
        samples.push_back(std::move(s));
    }
    return samples;
}

/** One phase's samples plus process CPU time at each window edge. */
struct PhaseRun {
    std::vector<Sample> samples;
    double start = 0.0;
    double window_s = 1.0;
    std::vector<double> cpu_at_edge; //!< windows + 1 readings
};

/** Runs `streams` generator threads; the calling thread samples CPU
 *  time at each window edge. */
PhaseRun
runPhase(const HotSet &hot, const Server &server, const Args &args,
         const IdleSpinners &spinners, int stream_base, size_t streams,
         double rate, double seconds, double window_s)
{
    PhaseRun run;
    run.window_s = window_s;
    run.start = nowSeconds() + 0.01;
    std::vector<std::vector<Sample>> per(streams);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < streams; ++i)
        threads.emplace_back([&, i] {
            per[i] = generate(hot, server, args.seed,
                              stream_base + static_cast<int>(i),
                              rate / static_cast<double>(streams), run.start,
                              seconds);
        });
    const int windows = static_cast<int>(seconds / window_s + 0.5);
    for (int w = 0; w <= windows; ++w) {
        std::this_thread::sleep_until(steadyPoint(run.start + w * window_s));
        run.cpu_at_edge.push_back(spinners.workCpuSeconds());
    }
    for (std::thread &t : threads)
        t.join();
    for (auto &p : per)
        for (Sample &s : p)
            run.samples.push_back(std::move(s));
    return run;
}

/** Per-window statistics of a phase. */
struct Windowed {
    std::vector<double> p50_ms, p95_ms, p99_ms, late_p99_ms, rate,
        cpu_ms_per_op;
    size_t min_samples = 0;
};

/**
 * Splits a phase into its windows (open loop by due time, closed loop
 * by completion time) and computes each window's statistics; the
 * workload reports their medians, so a host hiccup that spoils one
 * window does not move the run's figures.
 */
Windowed
windowed(const PhaseRun &run, bool by_due)
{
    const size_t n = run.cpu_at_edge.size() - 1;
    std::vector<std::vector<double>> lat(n), late(n);
    for (const Sample &s : run.samples) {
        const double t = (by_due ? s.due : s.done) - run.start;
        const size_t w = static_cast<size_t>(std::max(0.0, t / run.window_s));
        if (w >= n)
            continue;
        lat[w].push_back((s.done - s.due) * 1e3);
        late[w].push_back((s.sent - s.due) * 1e3);
    }
    Windowed out;
    out.min_samples = SIZE_MAX;
    for (size_t w = 0; w < n; ++w) {
        out.min_samples = std::min(out.min_samples, lat[w].size());
        if (lat[w].empty())
            continue;
        out.p50_ms.push_back(percentile(lat[w], 0.50));
        out.p95_ms.push_back(percentile(lat[w], 0.95));
        out.p99_ms.push_back(percentile(lat[w], 0.99));
        out.late_p99_ms.push_back(percentile(late[w], 0.99));
        out.rate.push_back(static_cast<double>(lat[w].size()) / run.window_s);
        out.cpu_ms_per_op.push_back(
            (run.cpu_at_edge[w + 1] - run.cpu_at_edge[w]) * 1e3 /
            static_cast<double>(lat[w].size()));
    }
    return out;
}

/**
 * Checks every sample: transport, status, decode, and equality with
 * the in-process answer (hits: byte-equal to the warm-up answer's
 * encoding; misses: decoded, and a seeded sample re-simulated by the
 * template-less oracle).  Runs after the timed phase.
 */
PhaseCounts
checkPhase(const HotSet &hot, const Server &server,
           const std::vector<Sample> &samples, uint64_t seed,
           size_t oracle_samples, size_t *misses_out)
{
    PhaseCounts c;
    std::vector<std::pair<size_t, SimulationResult>> misses;
    for (size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        ++c.attempted;
        if (!s.transport_ok) {
            ++c.transport;
            continue;
        }
        if (s.status < 200 || s.status > 299) {
            ++c.non_2xx;
            continue;
        }
        if (s.hit_bytes_ok) {
            ++c.succeeded;
            continue;
        }
        SimulationResult decoded;
        if (!wire::v1::decode(s.body, &decoded)) {
            ++c.decode;
            continue;
        }
        if (s.hot_index >= 0) {
            // Decodes, but not to the expected bytes: compare values.
            if (sameResult(decoded, server.hot_answers[s.hot_index]))
                ++c.succeeded;
            else
                ++c.mismatch;
            continue;
        }
        misses.emplace_back(i, decoded);
        ++c.succeeded;
    }
    if (misses_out)
        *misses_out = misses.size();
    std::mt19937_64 rng(seed ^ 0x2545f4914f6cdd1dull);
    std::shuffle(misses.begin(), misses.end(), rng);
    Simulator oracle(hot.cluster, SimOptions{}, nullptr);
    for (size_t j = 0; j < std::min(oracle_samples, misses.size()); ++j) {
        const SimRequest &request = *samples[misses[j].first].miss;
        const SimulationResult ref =
            oracle.simulateIteration(request.model, request.parallel);
        if (!sameResult(ref, misses[j].second)) {
            --c.succeeded;
            ++c.mismatch;
        }
    }
    return c;
}

/** Set-ups per run (median reported): the serial warm-up's time
 *  varies +-20% between back-to-back repetitions on a shared host. */
constexpr int kSetupReps = 5;

Report
runUntraced(const Args &args, const IdleSpinners &spinners)
{
    Report report;
    report.workload = "serve_mixed";
    std::vector<double> setups;
    HotSet hot;
    std::unique_ptr<Server> server;
    for (int rep = 0; rep < (args.smoke ? 1 : kSetupReps); ++rep) {
        server.reset();
        const double t0 = nowSeconds();
        hot = buildHotSet(args.seed, args.smoke, nullptr);
        server = startServer(hot, args.serve_threads, nullptr);
        setups.push_back(nowSeconds() - t0);
    }
    if (!prepareHitChecks(*server))
        ++report.check_failures;
    {
        std::string line = "set-ups (s):";
        for (double v : setups) {
            char buf[32];
            std::snprintf(buf, sizeof buf, " %.4f", v);
            line += buf;
        }
        report.note(line);
    }

    // Phase a: ten windows (>= 1000 samples each at the offered rate
    // when --seconds >= 15, so each window's p99 has >= 10 samples
    // beyond it); phase b: six windows.  The medians over windows keep
    // a host hiccup (a descheduled vCPU stalls every in-flight request
    // for ~10 ms) in one window from moving the run's figures.
    const double open_s = args.smoke ? 0.4 : 0.7 * args.seconds;
    const double closed_s = args.smoke ? 0.4 : 0.3 * args.seconds;
    const double rate = args.smoke ? kOpenLoopRate / 4 : kOpenLoopRate;
    const PhaseRun open =
        runPhase(hot, *server, args, spinners, 0, args.open_connections,
                 rate, open_s,
                 args.smoke ? 0.2 : open_s / 10);
    const PhaseRun closed =
        runPhase(hot, *server, args, spinners, 10, args.client_threads, 0.0,
                 closed_s, args.smoke ? 0.2 : closed_s / 6);

    size_t open_misses = 0, closed_misses = 0;
    report.phases["a_open_loop"] = checkPhase(
        hot, *server, open.samples, args.seed, args.smoke ? 2 : 8,
        &open_misses);
    report.phases["b_closed_loop"] =
        checkPhase(hot, *server, closed.samples, args.seed + 1,
                   args.smoke ? 2 : 8, &closed_misses);

    const HttpFrontendStats stats = server->frontend->stats();
    uint64_t shed = 0;
    for (const auto &t : stats.tenants)
        shed += t.shed_rate + t.shed_inflight + t.shed_queue + t.shed_auth;
    if (shed > 0)
        ++report.check_failures;
    const Windowed a = windowed(open, true);
    const Windowed b = windowed(closed, false);
    char line[320];
    std::snprintf(line, sizeof line,
                  "phase a: %zu samples (%zu misses) at %.0f/s offered on "
                  "%zu connections in %zu windows (>= %zu samples each), "
                  "generator late p99 %.3f ms; phase b: %zu completions "
                  "(%zu misses) on %zu connections in %zu windows; %llu "
                  "shed; threads %s",
                  open.samples.size(), open_misses, rate,
                  args.open_connections, a.p50_ms.size(),
                  a.min_samples, median(a.late_p99_ms), closed.samples.size(),
                  closed_misses, args.client_threads, b.rate.size(),
                  static_cast<unsigned long long>(shed),
                  pinned() ? "pinned (server 0-1, generator 2-3)"
                           : "unpinned");
    report.note(line);

    std::vector<double> miss_rtt_ms;
    for (const Sample &s : open.samples)
        if (s.hot_index < 0)
            miss_rtt_ms.push_back((s.done - s.sent) * 1e3);
    char p99[64];
    std::snprintf(p99, sizeof p99, "phase a p99 %.3f ms; ",
                  median(a.p99_ms));
    std::string windows = std::string(p99) + "window p99s (ms):";
    for (double v : a.p99_ms) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.2f", v);
        windows += buf;
    }
    windows += "; window p50s (ms):";
    for (double v : a.p50_ms) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.3f", v);
        windows += buf;
    }
    char rtt[96];
    std::snprintf(rtt, sizeof rtt, "; miss round trip p50 %.3f ms, p90 %.3f ms",
                  percentile(miss_rtt_ms, 0.5), percentile(miss_rtt_ms, 0.9));
    report.note(windows + rtt);

    report.metric("setup_s", median(setups), "s");
    report.metric("plans_per_s", median(b.rate), "1/s");
    report.metric("cpu_ms_per_plan", median(b.cpu_ms_per_op), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("p50_ms", median(a.p50_ms), "ms");
    report.metric("p95_ms", median(a.p95_ms), "ms");
    server->frontend->stop();
    return report;
}

/** Client loop, one connection, same traffic mix; optionally traced. */
struct LoopResult {
    double wall_s = 0.0;
    PhaseCounts counts;
    uint64_t request_bytes = 0, response_bytes = 0;
};

LoopResult
clientLoop(const HotSet &hot, const Server &server, uint64_t seed,
           int stream, size_t requests, Ledger *ledger)
{
    LoopResult out;
    net::HttpClient client("127.0.0.1", server.frontend->port());
    Traffic traffic(hot, seed, stream);
    net::HttpResponse response;
    std::string error;
    const double t0 = nowSeconds();
    for (size_t i = 0; i < requests; ++i) {
        Ledger::Span root(ledger, "request");
        const Arrival a = traffic.next();
        std::string body;
        {
            Ledger::Span span(ledger, "wire.encode_request");
            body = wire::v1::encode(a.hot_index >= 0
                                        ? hot.requests[a.hot_index]
                                        : a.request)
                       .dump();
        }
        bool ok;
        {
            Ledger::Span span(ledger, a.hot_index >= 0
                                          ? "net.evaluate_hit_rtt"
                                          : "net.evaluate_miss_rtt");
            ok = client.post("/v1/evaluate", body, &response, &error);
        }
        ++out.counts.attempted;
        if (!ok) {
            ++out.counts.transport;
            continue;
        }
        if (response.status != 200) {
            ++out.counts.non_2xx;
            continue;
        }
        SimulationResult result;
        {
            Ledger::Span span(ledger, "wire.decode_result");
            ok = wire::v1::decode(response.body, &result);
        }
        if (!ok) {
            ++out.counts.decode;
            continue;
        }
        if (a.hot_index >= 0 &&
            !sameResult(result, server.hot_answers[a.hot_index])) {
            ++out.counts.mismatch;
            continue;
        }
        ++out.counts.succeeded;
        out.request_bytes += body.size();
        out.response_bytes += response.body.size();
        if (i % 8 == 0) {
            Ledger::Span span(ledger, "net.healthz_rtt");
            client.get("/healthz", &response, &error);
        }
    }
    out.wall_s = nowSeconds() - t0;
    return out;
}

/**
 * Server-side layers in process, over the same traffic mix: decode
 * the request, evaluate (hits through the result cache; misses also
 * through the replica's spanned retime/replay, checked equal to the
 * service's answer), encode the result.
 */
LoopResult
serverSide(const HotSet &hot, Server &server, uint64_t seed, int stream,
           size_t requests, Ledger *ledger, ReplicaCounts *counts)
{
    LoopResult out;
    Traffic traffic(hot, seed, stream);
    ReplicaContext ctx{hot.cluster, SimOptions{},
                       &server.service->templateCache(), ledger, {}};
    const double t0 = nowSeconds();
    for (size_t i = 0; i < requests; ++i) {
        Ledger::Span root(ledger, "request");
        const Arrival a = traffic.next();
        const std::string fresh =
            a.hot_index >= 0 ? std::string()
                             : wire::v1::encode(a.request).dump();
        const std::string &body =
            a.hot_index >= 0 ? server.hot_bodies[a.hot_index] : fresh;
        SimRequest request;
        bool want_trace = false;
        int64_t deadline_ms = -1;
        net::HttpResponse error_response;
        bool ok;
        {
            Ledger::Span span(ledger, "wire.decode_request");
            ok = wire::v1::decodeEvaluateRequest(body, &request, &want_trace,
                                                 &deadline_ms, &error_response);
        }
        ++out.counts.attempted;
        if (!ok) {
            ++out.counts.decode;
            continue;
        }
        SimulationResult result;
        if (a.hot_index >= 0) {
            SimulationResult cached;
            {
                Ledger::Span span(ledger, "serve.cache_get");
                server.service->cache().get(request.fingerprint(), &cached);
            }
            Ledger::Span span(ledger, "serve.evaluate_hit");
            result = server.service->evaluate(request);
        } else {
            const SimulationResult replicated =
                replicaSimulate(ctx, request.model, request.parallel);
            {
                Ledger::Span span(ledger, "serve.evaluate_miss");
                result = server.service->evaluate(request);
            }
            if (!sameResult(replicated, result)) {
                ++out.counts.mismatch;
                continue;
            }
        }
        std::string encoded;
        {
            Ledger::Span span(ledger, "wire.encode_result");
            encoded = wire::v1::encodeEvaluateResponse(result);
        }
        ++out.counts.succeeded;
        out.response_bytes += encoded.size();
    }
    out.wall_s = nowSeconds() - t0;
    if (counts)
        *counts = std::move(ctx.counts);
    return out;
}

/**
 * Traced run.  Set-up and a short open-loop phase run untraced (the
 * generator's lateness).  Then two ledgers, each over the same number
 * of requests of the same mix, untraced first for the overhead:
 * the client side on one connection (encode, round trip, decode, a
 * /healthz round trip every 8th request) and the server side in
 * process (decode, result cache, evaluate, encode; misses also through
 * the spanned retime/replay path).
 */
Report
runTraced(const Args &args, const IdleSpinners &spinners)
{
    Report report;
    report.workload = "serve_mixed";
    Ledger setup_ledger;
    const double setup_start = nowSeconds();
    const HotSet hot = buildHotSet(args.seed, args.smoke, &setup_ledger);
    const std::unique_ptr<Server> server =
        startServer(hot, args.serve_threads, &setup_ledger);
    const double setup_wall = nowSeconds() - setup_start;

    if (!prepareHitChecks(*server))
        ++report.check_failures;
    const double phase_s = args.smoke ? 0.2 : 0.3 * args.seconds;
    const PhaseRun open = runPhase(
        hot, *server, args, spinners, 0, args.open_connections,
        args.smoke ? kOpenLoopRate / 4 : kOpenLoopRate, phase_s, phase_s);
    const double open_cpu_per_wall =
        (open.cpu_at_edge.back() - open.cpu_at_edge.front()) / phase_s;
    report.phases["a_open_loop"] = checkPhase(
        hot, *server, open.samples, args.seed, args.smoke ? 1 : 4, nullptr);

    // Size both ledgers' request counts from an untraced probe so the
    // traced run stays near --seconds (the probe overestimates a
    // loop's time by ~25%).
    const size_t probe_n = args.smoke ? 20 : 200;
    const LoopResult probe =
        clientLoop(hot, *server, args.seed, 12, probe_n, nullptr);
    const size_t n = args.smoke
                         ? probe_n
                         : std::max<size_t>(
                               probe_n, static_cast<size_t>(
                                            0.3 * args.seconds * probe_n /
                                            std::max(probe.wall_s, 1e-6)));

    Ledger client_ledger;
    const LoopResult client_plain =
        clientLoop(hot, *server, args.seed, 13, n, nullptr);
    const LoopResult client_traced =
        clientLoop(hot, *server, args.seed, 14, n, &client_ledger);
    Ledger server_ledger;
    const size_t n_server = std::max<size_t>(n / 4, 20);
    const LoopResult server_plain = serverSide(
        hot, *server, args.seed, 15, n_server, nullptr, nullptr);
    ReplicaCounts replica;
    const LoopResult server_traced = serverSide(
        hot, *server, args.seed, 16, n_server, &server_ledger, &replica);
    report.phases["client_loop"] = client_plain.counts;
    report.phases["client_loop"].merge(client_traced.counts);
    report.phases["server_side"] = server_plain.counts;
    report.phases["server_side"].merge(server_traced.counts);

    if (server->warmup_mismatches > 0)
        report.check_failures += server->warmup_mismatches;
    setup_ledger.print("serve_mixed set-up (hot-set warm-up)", setup_wall,
                       -1.0);
    client_ledger.print("serve_mixed client side, 1 connection",
                        client_traced.wall_s, client_plain.wall_s);
    server_ledger.print("serve_mixed server side, in process",
                        server_traced.wall_s, server_plain.wall_s);

    const HttpFrontendStats stats = server->frontend->stats();
    uint64_t admitted = 0, shed = 0;
    for (const auto &t : stats.tenants) {
        admitted += t.admitted;
        shed += t.shed_rate + t.shed_inflight + t.shed_queue + t.shed_auth;
    }
    if (shed > 0)
        ++report.check_failures;

    const auto mean_us = [](const Ledger &l, const char *name) {
        const Ledger::Row &row = l.row(name);
        return row.count ? row.total_s * 1e6 / row.count : 0.0;
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double hit_rtt = mean_us(client_ledger, "net.evaluate_hit_rtt");
    const double hit_eval = mean_us(server_ledger, "serve.evaluate_hit");
    const double server_wire = mean_us(server_ledger, "wire.decode_request") +
                               mean_us(server_ledger, "wire.encode_result");
    const uint64_t responses = client_traced.counts.succeeded;

    const ReplicaCounts &warm = server->warmup;
    report.metric("explore.enumerate_ms",
                  setup_ledger.row("explore.enumerate").total_s * 1e3, "ms");
    report.metric("graph.build_ms",
                  setup_ledger.selfSeconds("graph.build") * 1e3, "ms");
    report.metric("graph.capture_ms",
                  setup_ledger.selfSeconds("graph.capture") * 1e3, "ms");
    report.metric("graph.tasks_per_topology",
                  ratio(warm.capture_tasks, warm.captures), "count");
    report.metric("profiling.profiler_calls", warm.profiler_calls, "count");
    report.metric("profiling.distinct_ops", warm.table_entries, "count");
    report.metric("profiling.profile_ms",
                  setup_ledger.selfSeconds("profiling.profile") * 1e3, "ms");
    report.metric("sim.queue_ms",
                  setup_ledger.selfSeconds("sim.queue") * 1e3, "ms");
    report.metric("graph.schedule_ms",
                  server_ledger.selfSeconds("graph.schedule") * 1e3, "ms");
    report.metric("graph.template_evictions",
                  stats.service.graph_templates.evictions, "count");
    report.metric("graph.template_hit_rate",
                  stats.service.graph_templates.hitRate(), "ratio");
    report.metric("sim.retime_us_per_plan",
                  ratio(server_ledger.selfSeconds("sim.retime") * 1e6,
                        replica.retimes),
                  "us");
    report.metric("sim.replay_us_per_point",
                  ratio(server_ledger.selfSeconds("sim.replay") * 1e6,
                        replica.replay_points),
                  "us");
    report.metric("sim.replay_tasks_per_s",
                  ratio(replica.replay_tasks,
                        server_ledger.selfSeconds("sim.replay")),
                  "1/s");
    report.metric("sim.queue_runs", stats.service.engine.queue_runs, "count");
    report.metric("sim.replay_runs", stats.service.engine.replay_runs, "count");
    report.metric("sim.batched_points", stats.service.engine.batched_points,
                  "count");
    report.metric("serve.evaluate_hit_us", hit_eval, "us");
    report.metric("serve.evaluate_miss_ms",
                  mean_us(server_ledger, "serve.evaluate_miss") / 1e3, "ms");
    report.metric("serve.cache_hit_rate", stats.service.cache.hitRate(),
                  "ratio");
    report.metric("serve.inflight_joins", stats.service.inflight_joins,
                  "count");
    report.metric("wire.decode_request_us",
                  mean_us(server_ledger, "wire.decode_request"), "us");
    report.metric("wire.encode_result_us",
                  mean_us(server_ledger, "wire.encode_result"), "us");
    report.metric("wire.encode_request_us",
                  mean_us(client_ledger, "wire.encode_request"), "us");
    report.metric("wire.decode_result_us",
                  mean_us(client_ledger, "wire.decode_result"), "us");
    report.metric("wire.request_bytes",
                  ratio(client_traced.request_bytes, responses), "bytes");
    report.metric("wire.response_bytes",
                  ratio(client_traced.response_bytes, responses), "bytes");
    report.metric("admission.admitted", admitted, "count");
    report.metric("admission.shed", shed, "count");
    report.metric("net.healthz_rtt_us",
                  mean_us(client_ledger, "net.healthz_rtt"),
                  "us");
    report.metric("net.hit_overhead_us", hit_rtt - hit_eval - server_wire,
                  "us");
    report.metric("net.connects", stats.http.connections_accepted, "count");
    report.metric("net.gen_late_p99_ms",
                  median(windowed(open, true).late_p99_ms), "ms");
    report.metric("pool.cpu_per_wall", open_cpu_per_wall, "ratio");
    report.metric("pool.migrations", stats.service.pool.migrations, "count");
    report.note("graph.build/capture, profiling.* and sim.queue: the "
                "hot-set warm-up (set-up ledger); sim.retime/replay and "
                "graph.schedule: the misses (server-side ledger)");
    server->frontend->stop();
    return report;
}

} // namespace

Report
runServeMixed(const Args &args)
{
    // The spinners run for the whole workload: set-up's thread
    // hand-offs and every phase's round trips.  The sweep workloads do
    // without them: a CPU-bound sweep gains nothing, and SCHED_IDLE
    // spinners halved mtnlg_batch's throughput by skewing where the
    // scheduler places its unpinned pool workers.
    const IdleSpinners spinners;
    return args.trace ? runTraced(args, spinners) : runUntraced(args, spinners);
}

} // namespace perfbench
