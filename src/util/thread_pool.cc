#include "util/thread_pool.h"

#include <algorithm>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace vtrain {

namespace {

ThreadPool::Options sizeOnlyOptions(size_t n_threads)
{
    ThreadPool::Options options;
    options.n_threads = n_threads;
    return options;
}

} // namespace

ThreadPool::ThreadPool(size_t n_threads)
    : ThreadPool(sizeOnlyOptions(n_threads))
{
}

ThreadPool::ThreadPool(const Options &options)
{
    util::MetricRegistry &registry = util::MetricRegistry::global();
    queue_depth_gauge_ = registry.gauge(
        "vtrain_pool_queue_depth", {},
        "Tasks currently queued and not yet picked up by a worker.");
    queue_high_water_gauge_ = registry.gauge(
        "vtrain_pool_queue_depth_high_water", {},
        "Deepest the task queue has ever been (backlog peak; a proxy "
        "for how far behind the pool fell under burst load).");
    task_wait_seconds_ = registry.histogram(
        "vtrain_pool_task_wait_seconds", {},
        "Time a task spent queued before a worker dequeued it.");
    task_run_seconds_ = registry.histogram(
        "vtrain_pool_task_run_seconds", {},
        "Time a worker spent executing a task.");
    migrations_total_ = registry.counter(
        "vtrain_pool_thread_migrations_total", {},
        "Times a pool worker was observed running on a different CPU "
        "than its previous task (stays 0 when pinning holds).");

    size_t n_threads = options.n_threads;
    if (n_threads == 0) {
        n_threads = std::max(1u, std::thread::hardware_concurrency());
    }

#if defined(__linux__)
    if (options.pin_threads) {
        pin_cpus_ = options.cpu_set;
        if (pin_cpus_.empty()) {
            // Default pin set: every CPU this process is allowed on,
            // round-robin across workers.
            cpu_set_t allowed;
            CPU_ZERO(&allowed);
            if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
                for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                    if (CPU_ISSET(cpu, &allowed))
                        pin_cpus_.push_back(cpu);
            }
        }
    }
#endif

    thread_cpu_gauges_.reserve(n_threads);
    for (size_t i = 0; i < n_threads; ++i) {
        util::Gauge *gauge = registry.gauge(
            "vtrain_pool_thread_cpu", {{"thread", std::to_string(i)}},
            "CPU id the worker's most recent task ran on (-1 before "
            "its first task).");
        gauge->set(-1);
        thread_cpu_gauges_.push_back(gauge);
    }

    workers_.reserve(n_threads);
    for (size_t i = 0; i < n_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });

#if defined(__linux__)
    if (options.pin_threads && !pin_cpus_.empty()) {
        pinned_ = true;
        for (size_t i = 0; i < workers_.size(); ++i) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(pin_cpus_[i % pin_cpus_.size()], &one);
            if (pthread_setaffinity_np(workers_[i].native_handle(),
                                       sizeof(one), &one) != 0)
                pinned_ = false; // best effort; keep the pool usable
        }
    }
#endif
}

ThreadPool::~ThreadPool()
{
    {
        util::MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_task_.notifyAll();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        util::MutexLock lock(mutex_);
        tasks_.push(Task{std::move(task), util::monotonicNanos()});
        if (tasks_.size() > queue_high_water_) {
            queue_high_water_ = tasks_.size();
            queue_high_water_gauge_->set(
                static_cast<int64_t>(queue_high_water_));
        }
    }
    queue_depth_gauge_->add(1);
    cv_task_.notifyOne();
}

ThreadPool::PoolStats
ThreadPool::stats() const
{
    PoolStats stats;
    stats.threads = workers_.size();
    stats.pinned = pinned_;
    if (pinned_)
        stats.cpus = pin_cpus_;
    stats.migrations = migrations_.load(std::memory_order_relaxed);
    return stats;
}

void
ThreadPool::workerLoop(size_t index)
{
#if defined(__linux__)
    int last_cpu = -1;
#endif
    for (;;) {
        Task task;
        {
            util::MutexLock lock(mutex_);
            while (!stop_ && tasks_.empty())
                cv_task_.wait(mutex_);
            if (tasks_.empty())
                return; // stopped with an empty queue
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        queue_depth_gauge_->sub(1);
        const uint64_t dequeue_ns = util::monotonicNanos();
        task_wait_seconds_->record(
            static_cast<double>(dequeue_ns - task.enqueue_ns) * 1e-9);
        task.fn();
        task_run_seconds_->record(
            static_cast<double>(util::monotonicNanos() - dequeue_ns) * 1e-9);
#if defined(__linux__)
        // Track where this worker actually ran: a changed CPU id is
        // a scheduler migration (the cache-cold event pinning
        // exists to prevent).
        const int cpu = sched_getcpu();
        if (cpu >= 0 && cpu != last_cpu) {
            if (last_cpu >= 0) {
                migrations_.fetch_add(1, std::memory_order_relaxed);
                migrations_total_->inc();
            }
            thread_cpu_gauges_[index]->set(cpu);
            last_cpu = cpu;
        }
#else
        (void)index;
#endif
    }
}

} // namespace vtrain
