/**
 * @file
 * Unit tests for src/util/: statistics, interpolation, formatting,
 * RNG determinism and the thread pool.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <sstream>
#include <vector>

#include "util/interp.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace vtrain {
namespace {

TEST(Stats, MeanBasic)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, MeanEmpty)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, StddevKnown)
{
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
                2.1380899, 1e-6);
}

TEST(Stats, StddevDegenerate)
{
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(Stats, MinMax)
{
    EXPECT_DOUBLE_EQ(minOf({3.0, -1.0, 2.0}), -1.0);
    EXPECT_DOUBLE_EQ(maxOf({3.0, -1.0, 2.0}), 3.0);
}

TEST(Stats, PercentileMedian)
{
    EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.5), 3.0);
}

TEST(Stats, PercentileInterpolates)
{
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Stats, PercentileEnds)
{
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0}, 1.0), 4.0);
}

TEST(Stats, MapeExact)
{
    EXPECT_DOUBLE_EQ(mape({1.0, 2.0}, {1.0, 2.0}), 0.0);
}

TEST(Stats, MapeKnown)
{
    // |0.9-1|/1 = 10%, |2.2-2|/2 = 10% -> MAPE 10%.
    EXPECT_NEAR(mape({0.9, 2.2}, {1.0, 2.0}), 10.0, 1e-9);
}

TEST(Stats, MapeSizeMismatchPanics)
{
    EXPECT_THROW(mape({1.0}, {1.0, 2.0}), std::logic_error);
}

TEST(Stats, RSquaredPerfect)
{
    EXPECT_DOUBLE_EQ(rSquared({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 1.0);
}

TEST(Stats, RSquaredDegrades)
{
    const double r2 = rSquared({1.1, 1.9, 3.2}, {1.0, 2.0, 3.0});
    EXPECT_GT(r2, 0.9);
    EXPECT_LT(r2, 1.0);
}

TEST(Stats, LinearFitRecoversLine)
{
    std::vector<double> x{1.0, 2.0, 3.0, 4.0};
    std::vector<double> y;
    for (double v : x)
        y.push_back(3.0 * v - 1.0);
    const LinearFit fit = linearFit(x, y);
    EXPECT_NEAR(fit.slope, 3.0, 1e-12);
    EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Interp, LinearInside)
{
    InterpTable table({0.0, 10.0}, {0.0, 100.0});
    EXPECT_DOUBLE_EQ(table.linear(5.0), 50.0);
}

TEST(Interp, LinearExtrapolates)
{
    InterpTable table({0.0, 10.0}, {0.0, 100.0});
    EXPECT_DOUBLE_EQ(table.linear(20.0), 200.0);
    EXPECT_DOUBLE_EQ(table.linear(-5.0), -50.0);
}

TEST(Interp, LogLogPowerLaw)
{
    // y = x^2 sampled at powers of two is recovered exactly between
    // samples by log-log interpolation.
    InterpTable table({1.0, 2.0, 4.0, 8.0}, {1.0, 4.0, 16.0, 64.0});
    EXPECT_NEAR(table.loglog(3.0), 9.0, 1e-9);
    EXPECT_NEAR(table.loglog(6.0), 36.0, 1e-9);
}

TEST(Interp, LogLogExtrapolatesPowerLaw)
{
    InterpTable table({1.0, 2.0}, {1.0, 4.0});
    EXPECT_NEAR(table.loglog(8.0), 64.0, 1e-9);
}

TEST(Interp, RejectsNonMonotone)
{
    EXPECT_THROW(InterpTable({1.0, 1.0}, {1.0, 2.0}), std::logic_error);
}

TEST(Interp, AddSampleEnforcesOrder)
{
    InterpTable table;
    table.addSample(1.0, 1.0);
    EXPECT_THROW(table.addSample(0.5, 2.0), std::logic_error);
}

TEST(Table, AlignsAndCounts)
{
    TextTable table({"a", "b"});
    table.addRow({"1", "22"});
    table.addRow({"333", "4"});
    EXPECT_EQ(table.numRows(), 2u);
    std::ostringstream oss;
    table.print(oss);
    EXPECT_NE(oss.str().find("| a "), std::string::npos);
    EXPECT_NE(oss.str().find("333"), std::string::npos);
}

TEST(Table, RowWidthMismatchPanics)
{
    TextTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), std::logic_error);
}

TEST(Table, CsvQuotesCommas)
{
    TextTable table({"x"});
    table.addRow({"a,b"});
    std::ostringstream oss;
    table.printCsv(oss);
    EXPECT_NE(oss.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, FmtInt)
{
    EXPECT_EQ(fmtInt(11200), "11,200");
    EXPECT_EQ(fmtInt(-1234567), "-1,234,567");
    EXPECT_EQ(fmtInt(999), "999");
}

TEST(Table, FmtPercent)
{
    EXPECT_EQ(fmtPercent(0.4267), "42.67%");
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(usecToSec(1e6), 1.0);
    EXPECT_DOUBLE_EQ(secToUsec(2.0), 2e6);
    EXPECT_DOUBLE_EQ(secToDays(kSecPerDay), 1.0);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512.0 * 1e6), "512.00 MB");
}

TEST(Units, FormatSeconds)
{
    EXPECT_EQ(formatSeconds(42.59), "42.590 s");
    EXPECT_EQ(formatSeconds(2.0 * kSecPerDay), "2.00 days");
}

TEST(Units, FormatDollars)
{
    EXPECT_EQ(formatDollars(9.01e6), "$9.01M");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, LognormalPositive)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
        EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(ThreadPool, SubmitRunsEachTaskOnce)
{
    std::vector<std::atomic<int>> hits(100);
    {
        ThreadPool pool(4);
        for (size_t i = 0; i < hits.size(); ++i)
            pool.submit([&hits, i] { hits[i].fetch_add(1); });
    } // the destructor drains the queue before joining
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitBlocksUntilDone)
{
    // The pool offers no wait(); a caller that needs its tasks done
    // waits on its own latch, which each task counts down.
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    std::latch done(50);
    for (int i = 0; i < 50; ++i)
        pool.submit([&] {
            counter.fetch_add(1);
            done.count_down();
        });
    done.wait();
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TaskMaySubmitFollowUpWork)
{
    // A task that fans out from inside the pool, even on its only
    // worker, cannot deadlock: submit() never blocks, and the
    // follow-ups are queued before their parent finishes, so the
    // destructor's drain runs them all.
    std::atomic<int> follow_ups{0};
    {
        ThreadPool pool(1);
        pool.submit([&] {
            for (int i = 0; i < 8; ++i)
                pool.submit([&follow_ups] { follow_ups.fetch_add(1); });
        });
    }
    EXPECT_EQ(follow_ups.load(), 8);
}

TEST(ThreadPool, DestructorRunsQueuedTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i)
            pool.submit([&count] { count.fetch_add(1); });
    } // no wait(): the destructor drains the queue before joining
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency)
{
    ThreadPool pool;
    EXPECT_GE(pool.numThreads(), 1u);
}

TEST(ThreadPool, StatsReportThreadsAndPinning)
{
    ThreadPool::Options options;
    options.n_threads = 3;
    ThreadPool plain(options);
    const ThreadPool::PoolStats unpinned = plain.stats();
    EXPECT_EQ(unpinned.threads, 3u);
    EXPECT_FALSE(unpinned.pinned);
    EXPECT_TRUE(unpinned.cpus.empty());

#if defined(__linux__)
    options.pin_threads = true;
    ThreadPool pinned(options);
    const ThreadPool::PoolStats stats = pinned.stats();
    EXPECT_EQ(stats.threads, 3u);
    if (stats.pinned) {
        // Pinning resolved the allowed-CPU set and stuck each worker
        // to one entry; pinned workers never migrate.
        EXPECT_FALSE(stats.cpus.empty());
        std::atomic<int> count{0};
        std::latch done(64);
        for (int i = 0; i < 64; ++i)
            pinned.submit([&count, &done] {
                count.fetch_add(1);
                done.count_down();
            });
        done.wait();
        EXPECT_EQ(count.load(), 64);
    }
#endif
}

TEST(ThreadPool, ExplicitCpuSetRoundRobins)
{
#if defined(__linux__)
    // Pin 4 workers onto one explicitly-listed CPU (id 0 always
    // exists): the cpu_set is honored verbatim and work still runs.
    ThreadPool::Options options;
    options.n_threads = 4;
    options.pin_threads = true;
    options.cpu_set = {0};
    ThreadPool pool(options);
    const ThreadPool::PoolStats stats = pool.stats();
    if (stats.pinned) {
        EXPECT_EQ(stats.cpus, std::vector<int>{0});
    }
    std::atomic<int> count{0};
    std::latch done(16);
    for (int i = 0; i < 16; ++i)
        pool.submit([&count, &done] {
            count.fetch_add(1);
            done.count_down();
        });
    done.wait();
    EXPECT_EQ(count.load(), 16);
#else
    GTEST_SKIP() << "thread pinning is Linux-only";
#endif
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(VTRAIN_PANIC("boom"), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(VTRAIN_FATAL("bad config"), std::runtime_error);
}

TEST(Logging, CheckPassesQuietly)
{
    EXPECT_NO_THROW(VTRAIN_CHECK(1 + 1 == 2, "math works"));
}

TEST(Logging, VerboseToggle)
{
    setVerbose(false);
    EXPECT_FALSE(verbose());
    setVerbose(true);
    EXPECT_TRUE(verbose());
}

} // namespace
} // namespace vtrain
