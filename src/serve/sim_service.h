/**
 * @file
 * Concurrent simulation service: the request-level front end of the
 * simulator.
 *
 * SimService answers SimRequests through a three-level fast path:
 *
 *   1. result cache — a prior answer for the same canonical
 *      fingerprint returns immediately (see result_cache.h);
 *   2. in-flight dedup — a request identical to one currently being
 *      computed attaches to that computation's shared future instead
 *      of starting a second simulation;
 *   3. compute — otherwise the request is simulated and the answer
 *      is published to the cache.  evaluate() computes on the calling
 *      thread; evaluateBatch() computes on the calling thread plus up
 *      to numThreads() - 1 helper tasks on the service's ThreadPool.
 *
 * The result cache and the graph-template cache (graph/template.h)
 * share one policy, util::LruCache: exact LRU per shard, entry and
 * byte budgets split across shards, and the newest entry never
 * evicted.  They differ only in value type, byte cost per value,
 * shard count (16 and 1) and default budgets.
 *
 * The service owns one long-lived ThreadPool; constructing it once and
 * issuing many batches amortizes thread startup across sweeps (the
 * Explorer does exactly this).  All public methods are safe to call
 * from multiple threads, including from tasks running on the
 * service's own pool (the HTTP handlers are such tasks): no entry
 * point waits on work that is still queued, so a saturated pool
 * cannot deadlock on itself.
 */
#ifndef VTRAIN_SERVE_SIM_SERVICE_H
#define VTRAIN_SERVE_SIM_SERVICE_H

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/template.h"
#include "serve/result_cache.h"
#include "serve/sim_request.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace vtrain {

/** Help text of the vtrain_cache_{entries,bytes} gauges, whose one
 *  series per cache (label cache=result|template) /metricsz sets at
 *  scrape time. */
inline constexpr std::string_view kCacheEntriesHelp =
    "Entries resident in the named cache.";
inline constexpr std::string_view kCacheBytesHelp =
    "Approximate bytes held by the named cache.";

/** Service-level counters (cache counters live in util::CacheStats). */
struct ServiceStats {
    uint64_t requests = 0;      //!< requests received, all entry points
    uint64_t computed = 0;      //!< full simulations actually run
    uint64_t inflight_joins = 0; //!< requests that attached to a
                                 //!< computation already in flight
    uint64_t batch_dedups = 0;   //!< duplicates collapsed inside one
                                 //!< evaluateBatch() call
    util::CacheStats cache;

    /** Graph-template cache shared by every computed request: even a
     *  result-cache *miss* usually re-times a cached topology instead
     *  of rebuilding its graphs (see graph/template.h). */
    util::CacheStats graph_templates;

    /** Engine-mode counters shared by every computed request: how
     *  often the engine replayed a captured schedule vs ran the queue
     *  fallback, and how many sweep points went through the batched
     *  replay (see sim/engine.h). */
    EngineStats engine;

    /** Worker-pool facts: thread count, pinning state and targets,
     *  and observed scheduler migrations (see util/thread_pool.h). */
    ThreadPool::PoolStats pool;
};

/**
 * Thrown when a request's deadline budget expires before or during
 * compute (the caller gave up; stop burning the pool).  The HTTP
 * frontend maps it to a 504 error envelope and counts it per tenant.
 */
struct DeadlineExceeded : public std::runtime_error {
    DeadlineExceeded()
        : std::runtime_error(
              "deadline expired before the computation finished")
    {
    }
};

/** Thread-safe, memoizing façade over the vTrain simulator. */
class SimService
{
  public:
    /**
     * Pluggable compute function (request -> result).  The default
     * runs Simulator::simulateIteration; tests and instrumentation
     * can substitute a counting or blocking evaluator.
     */
    using Evaluator = std::function<SimulationResult(const SimRequest &)>;

    struct Options {
        /** Pool worker threads (0 = hardware concurrency).  It also
         *  bounds a batch: evaluateBatch() computes on at most this
         *  many threads at once, its caller included. */
        size_t n_threads = 0;

        /** Pin pool workers to CPUs (ThreadPool::Options; off by
         *  default, no-op where unsupported). */
        bool pin_threads = false;

        /** Explicit CPU ids for pinning; empty = every CPU the
         *  process may run on, round-robin across workers. */
        std::vector<int> pin_cpus;

        ResultCache::Options cache;

        /** Budget of the shared graph-template cache. */
        GraphTemplateCache::Options template_cache;

        /** Compute override; leave empty for the real simulator. */
        Evaluator evaluator;
    };

    SimService() : SimService(Options{}) {}
    explicit SimService(Options options);

    SimService(const SimService &) = delete;
    SimService &operator=(const SimService &) = delete;

    /**
     * Answers one request synchronously.  Cache hits return without
     * simulating; a request identical to one already in flight waits
     * for that computation; everything else simulates on the calling
     * thread (no pool hop on the latency path).
     *
     * `deadline_ns` (here and on the batch entry points) is an
     * absolute util::monotonicNanos() instant, 0 = none; once passed,
     * work not yet started is shed with DeadlineExceeded instead of
     * computing (cache hits still return normally — they cost
     * nothing).
     */
    SimulationResult evaluate(const SimRequest &request,
                              uint64_t deadline_ns = 0);

    /**
     * Evaluates a batch, preserving order: result[i] answers
     * requests[i].  Duplicate requests inside the batch are computed
     * once and fanned back out.  Requests that share a structural
     * batch group (sim/simulator.h batchGroupKey: same topology and
     * simulated micro-batch counts, different durations) are routed
     * through one batched replay — one template build/fetch plus a
     * single K-wide engine pass — instead of K independent
     * simulations.
     *
     * The groups (sliced to at most 64 members) and the remaining
     * requests form a list of units.  The calling thread computes
     * units itself while up to numThreads() - 1 helper tasks on the
     * pool claim the rest, so a batch never occupies more than
     * numThreads() threads.  The caller then waits only on units a
     * running thread holds and on computations other callers own,
     * never on a queued task: calling this from a pool task is safe.
     */
    std::vector<SimulationResult>
    evaluateBatch(const std::vector<SimRequest> &requests,
                  uint64_t deadline_ns = 0);

    ResultCache &cache() { return cache_; }
    const ResultCache &cache() const { return cache_; }

    /** The graph-template cache shared by every computed request. */
    GraphTemplateCache &templateCache() { return *templates_; }
    const GraphTemplateCache &templateCache() const
    {
        return *templates_;
    }

    ServiceStats stats() const;

    size_t numThreads() const { return pool_.numThreads(); }

    /**
     * The service's worker pool, shared with the HTTP frontend so the
     * process runs exactly one pool.  Tasks submitted here may call
     * any entry point above, but must not themselves block on other
     * work queued to this pool.
     */
    ThreadPool &pool() { return pool_; }

  private:
    struct Claimed;
    struct BatchWork;

    /** [start, end) of one simulator call, util::monotonicNanos(). */
    using Interval = std::pair<uint64_t, uint64_t>;

    /**
     * Runs the evaluator (or the real simulator) inside a
     * "service.compute" span.  A non-null `record` also receives the
     * call's interval (see BatchWork).
     */
    SimulationResult compute(const SimRequest &request,
                             std::vector<Interval> *record = nullptr) const;

    /** How claim() resolved a request. */
    enum class Claim {
        Owner,  //!< *claimed holds the request; the caller must compute
        Joined, //!< another thread is computing it
        Cached, //!< published since the caller's cache miss
    };

    /**
     * Claims `request` (fingerprint `fp`) after a result-cache miss.
     * Sets *future to the existing computation's future (Joined), to
     * a ready future when the result was published in the meantime
     * (Cached), or to the future of a new promise, which it registers
     * in the in-flight table and hands over in *claimed (Owner).  The
     * cache is re-checked under inflight_mutex_: publish() caches
     * before it erases the in-flight entry, so a fingerprint is always
     * found in one of the two and is never computed twice.  A
     * non-cacheable request is always Owner and never registered.
     */
    Claim claim(const SimRequest &request, uint64_t fp, Claimed *claimed,
                std::shared_future<SimulationResult> *future)
        EXCLUDES(inflight_mutex_);

    /** Publishes a finished computation: cache and table (cacheable
     *  requests only), then the promise. */
    void publish(const Claimed &claimed, const SimulationResult &result)
        EXCLUDES(inflight_mutex_);

    /**
     * Unwinds a failed computation (called from a catch block):
     * drops the in-flight entry so the fingerprint stays servable and
     * forwards the current exception through the shared future.
     */
    void publishFailure(const Claimed &claimed) EXCLUDES(inflight_mutex_);

    /** Claims and runs units of `work` until none are left; a helper
     *  records its simulator calls in the work list. */
    void drain(BatchWork &work, bool helper);

    /** Computes and publishes one unit (a group slice or a single;
     *  evaluate() runs its one claimed request as a unit too); a
     *  non-null `record` receives the interval of each simulator
     *  call, written before that call's results are published. */
    void runUnit(std::vector<Claimed> &members, uint64_t deadline_ns,
                 std::vector<Interval> *record);

    Options options_;
    ResultCache cache_;
    std::shared_ptr<GraphTemplateCache> templates_;
    std::shared_ptr<EngineCounters> engine_counters_;

    /** In-flight dedup: fingerprint -> the computation's future. */
    mutable util::Mutex inflight_mutex_;
    std::unordered_map<uint64_t, std::shared_future<SimulationResult>>
        inflight_ GUARDED_BY(inflight_mutex_);

    // Latency by fast-path outcome plus the batch group-size
    // distribution; resolved once in the constructor.
    util::Histogram *evaluate_cache_hit_seconds_ = nullptr;
    util::Histogram *evaluate_inflight_join_seconds_ = nullptr;
    util::Histogram *evaluate_computed_seconds_ = nullptr;
    util::Histogram *batch_group_size_ = nullptr;

    /** Service counters (ServiceStats snapshot source). */
    mutable util::Mutex stats_mutex_;
    uint64_t requests_ GUARDED_BY(stats_mutex_) = 0;
    uint64_t computed_ GUARDED_BY(stats_mutex_) = 0;
    uint64_t inflight_joins_ GUARDED_BY(stats_mutex_) = 0;
    uint64_t batch_dedups_ GUARDED_BY(stats_mutex_) = 0;

    // Last member on purpose: the pool is destroyed (and its queued
    // tasks drained) first, while the cache, in-flight table, mutexes
    // and counters a still-running batch helper touches are alive.
    ThreadPool pool_;
};

} // namespace vtrain

#endif // VTRAIN_SERVE_SIM_SERVICE_H
