#include "common/exec.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "common/logging.hh"

namespace tg {
namespace exec {

namespace {

using Body = std::function<void(int worker, std::size_t index)>;

thread_local int tlWorkerIndex = -1;

/** Upper bound on TG_JOBS: far beyond any sane machine, but keeps a
 *  fat-fingered value (or a strtol overflow) from trying to spawn
 *  hundreds of thousands of threads. */
constexpr long kMaxJobs = 1 << 12;

} // namespace

int
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? static_cast<int>(n) : 1;
}

int
resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("TG_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end == env || *end != '\0') {
            warn("TG_JOBS value '", env, "' is not a number; using ",
                 "the hardware thread count");
        } else if (v <= 0) {
            warn("TG_JOBS value ", v, " is not positive; using the ",
                 "hardware thread count");
        } else if (v > kMaxJobs) {
            warn("TG_JOBS value '", env, "' is absurdly large; ",
                 "clamping to ", kMaxJobs);
            return static_cast<int>(kMaxJobs);
        } else {
            return static_cast<int>(v);
        }
    }
    return hardwareThreads();
}

ThreadPool::ThreadPool(int threads)
{
    grow(std::max(1, threads));
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cvWork.notify_all();
    for (auto &w : workers)
        w.join();
}

int
ThreadPool::workerIndex()
{
    return tlWorkerIndex;
}

void
ThreadPool::grow(int threads)
{
    std::lock_guard<std::mutex> lock(mu);
    for (int i = static_cast<int>(workers.size()); i < threads; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

void
ThreadPool::workerLoop(int index)
{
    tlWorkerIndex = index;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            cvWork.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            if (queue.empty())
                return; // stopping with nothing left to do
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

void
ThreadPool::fanOut(ThreadPool *pool, std::size_t n, int width,
                   const Body &fn)
{
    if (width <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(0, i);
        return;
    }
    // The call's own index counter, and the latch its caller waits on:
    // it counts the runners down and keeps the call's first error.
    std::atomic<std::size_t> next{0};
    std::mutex latchMu;
    std::condition_variable latch;
    int pending = width;      // guarded by latchMu
    std::exception_ptr error; // guarded by latchMu
    // Runner r claims indices until none are left or one throws.
    auto runner = [&](int r) {
        try {
            for (std::size_t i = next++; i < n; i = next++)
                fn(r, i);
        } catch (...) {
            next = n;
            std::lock_guard<std::mutex> lock(latchMu);
            if (!error)
                error = std::current_exception();
        }
        // Notify under the lock: once pending reaches 0 the caller
        // may return and destroy this call's state.
        std::lock_guard<std::mutex> lock(latchMu);
        if (--pending == 0)
            latch.notify_all();
    };
    {
        std::lock_guard<std::mutex> lock(pool->mu);
        for (int r = 0; r < width; ++r)
            pool->queue.push_back([&runner, r] { runner(r); });
    }
    for (int r = 0; r < width; ++r)
        pool->cvWork.notify_one();
    std::unique_lock<std::mutex> lock(latchMu);
    latch.wait(lock, [&] { return pending == 0; });
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(std::size_t n, int jobs, const Body &fn)
{
    // A nested call runs inline and does not read TG_JOBS.
    int width = 1;
    if (n > 1 && ThreadPool::workerIndex() < 0)
        width = static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(resolveJobs(jobs)), n));
    ThreadPool *pool = nullptr;
    if (width > 1) {
        // Never destroyed: exit() from a task, or from a child forked
        // without exec (a death test), would otherwise join threads
        // that cannot finish or that the child does not have.
        static ThreadPool *const shared = new ThreadPool(width);
        pool = shared;
        pool->grow(width);
    }
    ThreadPool::fanOut(pool, n, width, fn);
}

void
parallelForOn(ThreadPool &pool, std::size_t n, const Body &fn)
{
    int width = 1;
    if (ThreadPool::workerIndex() < 0) {
        std::lock_guard<std::mutex> lock(pool.mu);
        width = static_cast<int>(std::min(pool.workers.size(), n));
    }
    ThreadPool::fanOut(&pool, n, width, fn);
}

ProgressSink::ProgressSink(bool enabled_in, std::size_t total_in)
    : enabled(enabled_in), total(total_in)
{
}

void
ProgressSink::completed(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mu);
    ++count;
    if (enabled)
        std::fprintf(stderr, "  [%zu/%zu] %s\n", count, total,
                     line.c_str());
}

std::size_t
ProgressSink::done() const
{
    std::lock_guard<std::mutex> lock(mu);
    return count;
}

} // namespace exec
} // namespace tg
