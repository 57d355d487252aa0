/** @file Unit tests for the exec work-scheduling layer. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
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
    std::vector<std::atomic<int>> hits(100);
    ThreadPool pool(4);
    parallelForOn(pool, hits.size(),
                  [&](int, std::size_t i) { hits[i]++; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ExecThreadPool, WorkerIndexIsStableAndInRange)
{
    ThreadPool pool(3);
    EXPECT_EQ(ThreadPool::workerIndex(), -1); // not a pool thread
    // Within one call a runner stays on one pool thread, and both ids
    // stay inside the pool's width.
    std::vector<std::atomic<int>> threadOf(3);
    for (auto &t : threadOf)
        t = -1;
    std::atomic<bool> bad{false};
    parallelForOn(pool, 200, [&](int worker, std::size_t) {
        const int w = ThreadPool::workerIndex();
        if (worker < 0 || worker >= 3 || w < 0 || w >= 3) {
            bad = true;
            return;
        }
        int expected = -1;
        if (!threadOf[static_cast<std::size_t>(worker)]
                 .compare_exchange_strong(expected, w) &&
            expected != w)
            bad = true;
    });
    EXPECT_FALSE(bad.load());
}

TEST(ExecThreadPool, WaitRethrowsFirstTaskError)
{
    ThreadPool pool(2);
    try {
        parallelForOn(pool, 8, [](int, std::size_t i) {
            if (i == 3)
                throw std::runtime_error("task 3 failed");
        });
        ADD_FAILURE() << "the task error was not rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 3 failed");
    }
    // The pool stays usable after the error is consumed.
    std::atomic<int> ran{0};
    parallelForOn(pool, 8, [&](int, std::size_t) { ran++; });
    EXPECT_EQ(ran.load(), 8);
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

TEST(ExecParallelFor, ConcurrentCallersKeepTheirOwnIndicesAndErrors)
{
    // Two callers share the process pool at once. Runners claim
    // indices in ascending order, so a body that throws at the last
    // index has seen every other index claimed first.
    constexpr std::size_t kN = 400;
    std::vector<std::atomic<int>> hitsA(kN), hitsB(kN);
    std::atomic<int> ready{0};
    auto body = [&](std::vector<std::atomic<int>> &hits, bool throws) {
        return [&hits, throws](int, std::size_t i) {
            hits[i]++;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            if (throws && i == kN - 1)
                throw std::runtime_error("caller A failed");
        };
    };
    auto start = [&] {
        ready++;
        while (ready.load() < 2)
            std::this_thread::yield();
    };
    std::string errA;
    bool threwB = false;
    std::thread a([&] {
        start();
        try {
            parallelFor(kN, 4, body(hitsA, true));
        } catch (const std::runtime_error &e) {
            errA = e.what();
        }
    });
    std::thread b([&] {
        start();
        try {
            parallelFor(kN, 4, body(hitsB, false));
        } catch (...) {
            threwB = true;
        }
    });
    a.join();
    b.join();
    EXPECT_EQ(errA, "caller A failed");
    EXPECT_FALSE(threwB);
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hitsA[i].load(), 1) << "A index " << i;
        EXPECT_EQ(hitsB[i].load(), 1) << "B index " << i;
    }
}

TEST(ExecParallelFor, NestedCallRunsInline)
{
    std::atomic<bool> bad{false};
    parallelFor(4, 4, [&](int, std::size_t) {
        if (ThreadPool::workerIndex() < 0)
            bad = true; // a fan-out of 4 runs on pool threads
        const auto self = std::this_thread::get_id();
        std::vector<std::size_t> order;
        parallelFor(6, 4, [&](int worker, std::size_t i) {
            if (worker != 0 || std::this_thread::get_id() != self)
                bad = true;
            order.push_back(i);
        });
        if (order != std::vector<std::size_t>{0, 1, 2, 3, 4, 5})
            bad = true;
    });
    EXPECT_FALSE(bad.load());
}

TEST(ExecParallelForDeathTest, ExitFromATaskDoesNotHang)
{
    // Re-execute the child, so it starts its own pool threads: exit()
    // from a task must then end the process, not join the pool.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parallelFor(8, 4,
                            [](int, std::size_t i) {
                                if (i == 5)
                                    std::exit(7);
                            }),
                ::testing::ExitedWithCode(7), "");
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
