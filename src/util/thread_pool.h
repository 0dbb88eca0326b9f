/**
 * @file
 * A fixed-size worker pool used by the design-space explorer and the
 * serve stack.
 *
 * Section III-F of the paper notes that design-space exploration is
 * embarrassingly parallel across CPU cores; ThreadPool provides that
 * parallelism for Explorer::sweep() and SimService.
 *
 * One execution shape: submit() enqueues a task and never blocks.
 * The pool offers no way to wait for queued work; callers that need
 * results hand them back through their own futures, and the
 * destructor drains the queue before joining.  Each task a worker runs
 * is one sample of the wait and run histograms, so those series count
 * only submitted work.
 *
 * Workers can optionally be pinned to CPUs (Options::pin_threads,
 * Linux only, off by default): serve deployments that dedicate cores
 * to the pool avoid scheduler migrations that cold the per-thread
 * caches mid-batch.  Per-thread CPU gauges and a migration counter
 * make the effect visible on /metricsz either way.
 */
#ifndef VTRAIN_UTIL_THREAD_POOL_H
#define VTRAIN_UTIL_THREAD_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {

/** A minimal task-queue thread pool. */
class ThreadPool
{
  public:
    struct Options {
        /** Worker count; 0 selects hardware concurrency. */
        size_t n_threads = 0;

        /**
         * Pin worker i to cpu_set[i % cpu_set.size()] with
         * pthread_setaffinity_np.  Off by default; a no-op on
         * platforms without affinity support (non-Linux).
         */
        bool pin_threads = false;

        /** CPU ids to pin to; empty = every CPU the process may run
         *  on (sched_getaffinity), round-robin across workers. */
        std::vector<int> cpu_set;
    };

    /** Point-in-time pool facts for /statz (see SimService). */
    struct PoolStats {
        size_t threads = 0;

        /** Pinning was requested, supported, and applied to every
         *  worker. */
        bool pinned = false;

        /** Resolved pin targets (empty unless pinning was requested
         *  on a supporting platform). */
        std::vector<int> cpus;

        /** Times a worker was observed on a different CPU than its
         *  previous task ran on (0 stays 0 when pinned). */
        uint64_t migrations = 0;
    };

    /** @param n_threads worker count; 0 selects hardware concurrency. */
    explicit ThreadPool(size_t n_threads = 0);

    explicit ThreadPool(const Options &options);

    /** Drains the queue and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueues a task for asynchronous execution. */
    void submit(std::function<void()> task) EXCLUDES(mutex_);

    size_t numThreads() const { return workers_.size(); }

    /** @return pool configuration + the live migration count. */
    PoolStats stats() const;

  private:
    /** A queued task plus its enqueue timestamp so the worker can
     *  report how long it sat waiting for a thread. */
    struct Task {
        std::function<void()> fn;
        uint64_t enqueue_ns = 0;
    };

    void workerLoop(size_t index) EXCLUDES(mutex_);

    std::vector<std::thread> workers_; //!< written by ctor/dtor only
    util::Mutex mutex_;
    util::CondVar cv_task_;
    std::queue<Task> tasks_ GUARDED_BY(mutex_);
    bool stop_ GUARDED_BY(mutex_) = false;
    size_t queue_high_water_ GUARDED_BY(mutex_) = 0;

    // Pinning state, written by the constructor only.
    std::vector<int> pin_cpus_; //!< resolved pin targets
    bool pinned_ = false;       //!< every worker pinned successfully
    std::atomic<uint64_t> migrations_{0};

    // Resolved once at construction; the registry owns the objects.
    util::Gauge *queue_depth_gauge_;      //!< vtrain_pool_queue_depth
    util::Gauge *queue_high_water_gauge_; //!< lifetime peak queue depth
    util::Histogram *task_wait_seconds_;  //!< enqueue -> dequeue
    util::Histogram *task_run_seconds_;   //!< dequeue -> completion
    util::Counter *migrations_total_;     //!< worker CPU switches
    std::vector<util::Gauge *> thread_cpu_gauges_; //!< last CPU per worker
};

} // namespace vtrain

#endif // VTRAIN_UTIL_THREAD_POOL_H
