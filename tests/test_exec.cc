/** @file Unit tests for the exec work-scheduling layer. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common/exec.hh"

namespace tg {
namespace exec {
namespace {

TEST(ExecResolveJobs, ExplicitRequestWins)
{
    setenv("TG_JOBS", "7", 1);
    EXPECT_EQ(resolveJobs(3), 3);
    unsetenv("TG_JOBS");
}

TEST(ExecResolveJobs, EnvOverrideApplies)
{
    setenv("TG_JOBS", "5", 1);
    EXPECT_EQ(resolveJobs(0), 5);
    EXPECT_EQ(resolveJobs(-1), 5);
    unsetenv("TG_JOBS");
}

TEST(ExecResolveJobs, InvalidEnvFallsBackToHardware)
{
    setenv("TG_JOBS", "banana", 1);
    EXPECT_EQ(resolveJobs(0), hardwareThreads());
    setenv("TG_JOBS", "-3", 1);
    EXPECT_EQ(resolveJobs(0), hardwareThreads());
    unsetenv("TG_JOBS");
    EXPECT_EQ(resolveJobs(0), hardwareThreads());
    EXPECT_GE(hardwareThreads(), 1);
}

TEST(ExecResolveJobs, NonNumericEnvFallsBackToHardware)
{
    for (const char *bad : {"", " ", "4x", "x4", "1.5", "0b10"}) {
        setenv("TG_JOBS", bad, 1);
        EXPECT_EQ(resolveJobs(0), hardwareThreads())
            << "TG_JOBS='" << bad << "'";
    }
    unsetenv("TG_JOBS");
}

TEST(ExecResolveJobs, NonPositiveEnvFallsBackToHardware)
{
    for (const char *bad : {"0", "-1", "-4096"}) {
        setenv("TG_JOBS", bad, 1);
        EXPECT_EQ(resolveJobs(0), hardwareThreads())
            << "TG_JOBS='" << bad << "'";
    }
    unsetenv("TG_JOBS");
}

TEST(ExecResolveJobs, AbsurdlyLargeEnvIsClamped)
{
    // Just past the cap, a fat-fingered value, and a strtol overflow:
    // all clamp to the 4096 ceiling instead of spawning that many
    // threads (or silently doing something else).
    for (const char *huge : {"4097", "400000", "99999999999999999999"}) {
        setenv("TG_JOBS", huge, 1);
        EXPECT_EQ(resolveJobs(0), 4096) << "TG_JOBS='" << huge << "'";
    }
    setenv("TG_JOBS", "4096", 1);
    EXPECT_EQ(resolveJobs(0), 4096);  // exactly at the cap: no clamp
    unsetenv("TG_JOBS");
}

TEST(ExecThreadPool, RunsEveryTask)
{
    std::atomic<int> sum{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 100; ++i)
            pool.submit([&sum, i] { sum += i; });
        pool.wait();
        EXPECT_EQ(sum.load(), 4950);
    }
}

TEST(ExecThreadPool, BoundedQueueCompletesEverything)
{
    // Capacity 1 forces the submitter to block and hand off work in
    // lock-step; every task must still run exactly once.
    std::vector<std::atomic<int>> hits(64);
    ThreadPool pool(2, 1);
    for (std::size_t i = 0; i < hits.size(); ++i)
        pool.submit([&hits, i] { hits[i]++; });
    pool.wait();
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ExecThreadPool, WorkerIndexIsStableAndInRange)
{
    ThreadPool pool(3);
    EXPECT_EQ(ThreadPool::workerIndex(), -1); // not a pool thread
    std::atomic<bool> bad{false};
    for (int i = 0; i < 200; ++i)
        pool.submit([&bad] {
            int w = ThreadPool::workerIndex();
            if (w < 0 || w >= 3)
                bad = true;
        });
    pool.wait();
    EXPECT_FALSE(bad.load());
}

TEST(ExecThreadPool, WaitRethrowsFirstTaskError)
{
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i)
        pool.submit([i] {
            if (i == 3)
                throw std::runtime_error("task 3 failed");
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The pool stays usable after the error is consumed.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran++; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ExecParallelFor, CoversEachIndexOnceWithValidWorker)
{
    std::vector<std::atomic<int>> hits(257);
    std::atomic<bool> bad_worker{false};
    parallelFor(hits.size(), 4, [&](int worker, std::size_t i) {
        if (worker < 0 || worker >= 4)
            bad_worker = true;
        hits[i]++;
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_FALSE(bad_worker.load());
}

TEST(ExecParallelFor, SingleJobRunsInlineInOrder)
{
    std::vector<std::size_t> order;
    parallelFor(5, 1, [&](int worker, std::size_t i) {
        EXPECT_EQ(worker, 0);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecParallelFor, EmptyRangeAndErrorPropagation)
{
    parallelFor(0, 8, [](int, std::size_t) { FAIL(); });
    EXPECT_THROW(parallelFor(16, 4,
                             [](int, std::size_t i) {
                                 if (i == 9)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ExecProgressSink, CountsCompletionsQuietly)
{
    ProgressSink sink(false, 10);
    parallelFor(10, 4,
                [&](int, std::size_t) { sink.completed("line"); });
    EXPECT_EQ(sink.done(), 10u);
}

} // namespace
} // namespace exec
} // namespace tg
