#include "serve/sim_service.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "sim/simulator.h"
#include "util/trace.h"

namespace vtrain {

namespace {

ThreadPool::Options
poolOptions(const SimService::Options &options)
{
    ThreadPool::Options pool;
    pool.n_threads = options.n_threads;
    pool.pin_threads = options.pin_threads;
    pool.cpu_set = options.pin_cpus;
    return pool;
}

/**
 * Runs `call`, one simulator call, inside a "service.compute" span.
 * The span lands in the calling thread's trace capture, if any; a
 * non-null `record` also receives the call's interval, for a thread
 * that runs work on another thread's behalf.
 */
template <typename Call>
auto
timedCompute(std::vector<std::pair<uint64_t, uint64_t>> *record, Call &&call)
{
    util::TraceSpan span("service.compute");
    const uint64_t start_ns = util::monotonicNanos();
    auto result = call();
    if (record)
        record->emplace_back(start_ns, util::monotonicNanos());
    return result;
}

} // namespace

SimService::SimService(Options options)
    : options_(std::move(options)), cache_(options_.cache),
      templates_(std::make_shared<GraphTemplateCache>(
          options_.template_cache)),
      engine_counters_(std::make_shared<EngineCounters>()),
      pool_(poolOptions(options_))
{
    util::MetricRegistry &registry = util::MetricRegistry::global();
    const std::string_view latency_help =
        "evaluate() latency by fast-path outcome (result-cache hit, "
        "joined an in-flight computation, or computed).";
    evaluate_cache_hit_seconds_ =
        registry.histogram("vtrain_service_evaluate_seconds",
                           {{"outcome", "cache_hit"}}, latency_help);
    evaluate_inflight_join_seconds_ =
        registry.histogram("vtrain_service_evaluate_seconds",
                           {{"outcome", "inflight_join"}}, latency_help);
    evaluate_computed_seconds_ =
        registry.histogram("vtrain_service_evaluate_seconds",
                           {{"outcome", "computed"}}, latency_help);
    batch_group_size_ = registry.histogram(
        "vtrain_service_batch_group_size", {},
        "Structural-group sizes inside evaluateBatch() calls (1 = "
        "simulated alone, >1 = shared one batched engine pass).");
    // Lazily-resolved families this service will feed once traffic
    // arrives, declared now so the first /metricsz scrape already
    // lists the full inventory.
    registry.declareHistogram("vtrain_sim_phase_seconds",
                              kSimPhaseSecondsHelp);
    registry.declareGauge("vtrain_cache_entries", kCacheEntriesHelp);
    registry.declareGauge("vtrain_cache_bytes", kCacheBytesHelp);
}

SimulationResult
SimService::compute(const SimRequest &request,
                    std::vector<Interval> *record) const
{
    return timedCompute(record, [&] {
        if (options_.evaluator)
            return options_.evaluator(request);
        // Per-request Simulator, shared template cache: a result-cache
        // miss that matches a seen topology re-times instead of
        // rebuilds.
        Simulator sim(request.cluster, request.options, templates_,
                      engine_counters_);
        return sim.simulateIteration(request.model, request.parallel);
    });
}

/** One claimed-but-uncomputed point: its request and owned promise. */
struct SimService::Claimed {
    SimRequest request;
    uint64_t fp = 0; //!< 0 for a non-cacheable request
    std::shared_ptr<std::promise<SimulationResult>> promise;
};

SimService::Claim
SimService::claim(const SimRequest &request, uint64_t fp, Claimed *claimed,
                  std::shared_future<SimulationResult> *future)
{
    // A Joined claim shares the owner's future; only the Owner and
    // Cached paths make a promise of their own.
    std::shared_ptr<std::promise<SimulationResult>> promise;
    if (request.cacheable()) {
        util::MutexLock lock(inflight_mutex_);
        auto it = inflight_.find(fp);
        if (it != inflight_.end()) {
            *future = it->second;
            return Claim::Joined;
        }
        SimulationResult cached;
        if (cache_.recheck(fp, &cached)) {
            std::promise<SimulationResult> ready;
            *future = ready.get_future().share();
            ready.set_value(std::move(cached));
            return Claim::Cached;
        }
        promise = std::make_shared<std::promise<SimulationResult>>();
        *future = promise->get_future().share();
        inflight_.emplace(fp, *future);
    } else {
        promise = std::make_shared<std::promise<SimulationResult>>();
        *future = promise->get_future().share();
    }
    *claimed = Claimed{request, fp, std::move(promise)};
    return Claim::Owner;
}

void
SimService::publish(const Claimed &claimed, const SimulationResult &result)
{
    // Cache before dropping the in-flight entry so that at every
    // instant an identical request finds the answer in one of the two.
    if (claimed.request.cacheable()) {
        cache_.put(claimed.fp, result);
        util::MutexLock lock(inflight_mutex_);
        inflight_.erase(claimed.fp);
    }
    claimed.promise->set_value(result);
}

void
SimService::publishFailure(const Claimed &claimed)
{
    // A failure must not poison the fingerprint: drop the in-flight
    // entry so the next identical request recomputes, and hand the
    // exception to everyone already joined on the future.
    if (claimed.request.cacheable()) {
        util::MutexLock lock(inflight_mutex_);
        inflight_.erase(claimed.fp);
    }
    claimed.promise->set_exception(std::current_exception());
}

SimulationResult
SimService::evaluate(const SimRequest &request, uint64_t deadline_ns)
{
    const uint64_t start_ns = util::monotonicNanos();
    {
        util::MutexLock lock(stats_mutex_);
        ++requests_;
    }
    const uint64_t fp = request.cacheable() ? request.fingerprint() : 0;
    util::Histogram *outcome = evaluate_cache_hit_seconds_;
    SimulationResult result;
    if (!request.cacheable() || !cache_.get(fp, &result)) {
        std::vector<Claimed> unit(1);
        std::shared_future<SimulationResult> future;
        switch (claim(request, fp, &unit.front(), &future)) {
          case Claim::Owner:
            // A one-member unit on the calling thread: the synchronous
            // path pays no queueing latency and cannot deadlock a
            // saturated pool.  A failure or an expired deadline
            // reaches the caller through the future.
            runUnit(unit, deadline_ns, nullptr);
            outcome = evaluate_computed_seconds_;
            result = future.get();
            break;
          case Claim::Joined: {
            {
                util::MutexLock lock(stats_mutex_);
                ++inflight_joins_;
            }
            util::TraceSpan span("service.inflight_wait");
            outcome = evaluate_inflight_join_seconds_;
            result = future.get();
            break;
          }
          case Claim::Cached:
            result = future.get();
            break;
        }
    }
    outcome->record(static_cast<double>(util::monotonicNanos() - start_ns) *
                    1e-9);
    return result;
}

/**
 * One batch's work list, shared by its caller and helper tasks.  Each
 * unit is claimed exactly once through `next`; the list lives until
 * the last of them lets go, so a helper that starts after the batch
 * returned finds the cursor exhausted and touches nothing else.
 *
 * A trace capture is per thread, so the caller's trace holds only the
 * "service.compute" spans of the units it ran.  A helper records the
 * intervals of its units' simulator calls in `helper_computes`, each
 * before publishing that call's results; once the caller has every
 * result, it adds them to its trace.
 */
struct SimService::BatchWork {
    std::vector<std::vector<Claimed>> units;
    std::vector<std::vector<Interval>> helper_computes; //!< per unit
    std::atomic<size_t> next{0};
    uint64_t deadline_ns = 0;
};

void
SimService::drain(BatchWork &work, bool helper)
{
    for (size_t i = work.next.fetch_add(1, std::memory_order_relaxed);
         i < work.units.size();
         i = work.next.fetch_add(1, std::memory_order_relaxed))
        runUnit(work.units[i], work.deadline_ns,
                helper ? &work.helper_computes[i] : nullptr);
}

void
SimService::runUnit(std::vector<Claimed> &members, uint64_t deadline_ns,
                    std::vector<Interval> *record)
{
    // Units of one take the plain path; larger ones try the batched
    // replay and degrade to per-member computation when members turn
    // out not to share (model, cluster, options) after all (a
    // group-key collision) or the batched call throws.  A member whose
    // deadline expired while it waited for a thread is shed instead of
    // computing an answer the caller gave up on; its promise was
    // claimed, so it is failed with DeadlineExceeded, never abandoned.
    const auto expired = [deadline_ns] {
        return deadline_ns != 0 && util::monotonicNanos() >= deadline_ns;
    };
    const SimRequest &head = members.front().request;
    const auto shares_head = [&head](const Claimed &member) {
        return member.request.model == head.model &&
               member.request.cluster == head.cluster &&
               member.request.options == head.options;
    };
    if (members.size() > 1 && !options_.evaluator && !expired() &&
        std::all_of(members.begin() + 1, members.end(), shares_head)) {
        std::vector<ParallelConfig> plans;
        plans.reserve(members.size());
        for (const Claimed &member : members)
            plans.push_back(member.request.parallel);
        std::vector<SimulationResult> results;
        try {
            results = timedCompute(record, [&] {
                Simulator sim(head.cluster, head.options, templates_,
                              engine_counters_);
                return sim.simulateIterationBatch(head.model, plans);
            });
        } catch (...) {
            // Fall through to per-member isolation below.  The compute
            // is all-or-nothing, so nothing has been published yet.
        }
        if (results.size() == members.size()) {
            {
                util::MutexLock lock(stats_mutex_);
                computed_ += members.size();
            }
            for (size_t m = 0; m < members.size(); ++m) {
                try {
                    publish(members[m], results[m]);
                } catch (...) {
                    // A failed publish (e.g. bad_alloc while storing
                    // the value) must not poison the other members or
                    // escape the thread.
                    publishFailure(members[m]);
                }
            }
            return;
        }
    }
    for (const Claimed &member : members) {
        try {
            if (expired())
                throw DeadlineExceeded();
            const SimulationResult result =
                compute(member.request, record);
            {
                util::MutexLock lock(stats_mutex_);
                ++computed_;
            }
            publish(member, result);
        } catch (...) {
            publishFailure(member);
        }
    }
}

std::vector<SimulationResult>
SimService::evaluateBatch(const std::vector<SimRequest> &requests,
                          uint64_t deadline_ns)
{
    // Expired before anything was claimed: shed the whole batch up
    // front rather than simulating answers nobody is waiting for.
    if (deadline_ns != 0 && util::monotonicNanos() >= deadline_ns)
        throw DeadlineExceeded();
    // Collapse duplicates up front so each distinct point is claimed
    // (and simulated) once, then fan the shared answers back out in
    // request order.  Distinct points this call claims are grouped
    // by structural batch key: a group shares one graph template and
    // one batched engine pass (Simulator::simulateIterationBatch)
    // instead of simulating its members independently.
    std::vector<std::shared_future<SimulationResult>> futures;
    futures.reserve(requests.size());
    std::vector<size_t> future_of(requests.size());
    std::unordered_map<uint64_t, size_t> first_with_fp;
    uint64_t dedups = 0;

    // Batch groups keyed by batchGroupKey(); 0 = never grouped.
    std::unordered_map<uint64_t, std::vector<Claimed>> groups;
    std::vector<Claimed> singles;

    for (size_t i = 0; i < requests.size(); ++i) {
        // Non-cacheable requests cannot dedupe or hit the cache; claim()
        // hands them straight back to be computed.
        const SimRequest &request = requests[i];
        const bool cacheable = request.cacheable();
        const uint64_t fp = cacheable ? request.fingerprint() : 0;
        if (cacheable) {
            auto [it, inserted] =
                first_with_fp.emplace(fp, futures.size());
            if (!inserted) {
                future_of[i] = it->second;
                ++dedups;
                continue;
            }
        }
        future_of[i] = futures.size();

        SimulationResult cached;
        if (cacheable && cache_.get(fp, &cached)) {
            std::promise<SimulationResult> ready;
            ready.set_value(std::move(cached));
            futures.push_back(ready.get_future().share());
            continue;
        }

        Claimed claimed;
        futures.emplace_back();
        const Claim outcome = claim(request, fp, &claimed, &futures.back());
        if (outcome == Claim::Joined) {
            util::MutexLock lock(stats_mutex_);
            ++inflight_joins_;
        }
        if (outcome != Claim::Owner)
            continue;

        // A pluggable evaluator is a black box: only the real
        // simulator can share work across a group.  batchGroupKey is
        // 0 for a perturbed (non-cacheable) request.
        const uint64_t key =
            options_.evaluator
                ? 0
                : batchGroupKey(request.model, request.parallel,
                                request.cluster, request.options);
        if (key != 0)
            groups[key].push_back(std::move(claimed));
        else
            singles.push_back(std::move(claimed));
    }

    {
        util::MutexLock lock(stats_mutex_);
        requests_ += requests.size();
        batch_dedups_ += dedups;
    }

    for (const auto &[key, members] : groups)
        batch_group_size_->record(static_cast<double>(members.size()));
    for (size_t i = 0; i < singles.size(); ++i)
        batch_group_size_->record(1.0);

    // Groups are sliced into units of at most kMaxGroupPerUnit so a
    // single huge group still spreads across threads (each slice
    // re-times against the same cached template, so slicing costs
    // only the per-slice profiler table).
    constexpr size_t kMaxGroupPerUnit = 64;
    auto work = std::make_shared<BatchWork>();
    work->deadline_ns = deadline_ns;
    work->units.reserve(groups.size() + singles.size());
    for (auto &[key, members] : groups) {
        for (size_t begin = 0; begin < members.size();
             begin += kMaxGroupPerUnit) {
            const size_t end =
                std::min(begin + kMaxGroupPerUnit, members.size());
            work->units.emplace_back(
                std::make_move_iterator(members.begin() + begin),
                std::make_move_iterator(members.begin() + end));
        }
    }
    for (Claimed &claimed : singles) {
        work->units.emplace_back();
        work->units.back().push_back(std::move(claimed));
    }
    work->helper_computes.resize(work->units.size());

    // The caller computes too, so at most numThreads() threads work
    // on this batch, the caller included.  A helper that never gets a
    // thread costs nothing: the caller claims every unit no running
    // thread has, so it never waits on a task still in the queue,
    // even when it is itself a task on this pool.
    if (!work->units.empty()) {
        const size_t helpers =
            std::min(work->units.size(), numThreads()) - 1;
        for (size_t h = 0; h < helpers; ++h)
            pool_.submit([this, work] { drain(*work, true); });
        drain(*work, false);
    }

    // Every unit is claimed by now: the futures left are units that
    // running helpers hold and computations other callers own.
    std::vector<SimulationResult> results(requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        results[i] = futures[future_of[i]].get();
    // Every helper record precedes a result read above.
    if (util::TraceCapture *capture = util::TraceCapture::current())
        for (const std::vector<Interval> &unit : work->helper_computes)
            for (const auto &[start_ns, end_ns] : unit)
                capture->addSpan("service.compute", start_ns, end_ns);
    return results;
}

ServiceStats
SimService::stats() const
{
    ServiceStats stats;
    {
        util::MutexLock lock(stats_mutex_);
        stats.requests = requests_;
        stats.computed = computed_;
        stats.inflight_joins = inflight_joins_;
        stats.batch_dedups = batch_dedups_;
    }
    stats.cache = cache_.stats();
    stats.graph_templates = templates_->stats();
    stats.engine = snapshot(*engine_counters_);
    stats.pool = pool_.stats();
    return stats;
}

} // namespace vtrain
