#include "common/exec.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/logging.hh"

namespace tg {
namespace exec {

namespace {

thread_local int tlWorkerIndex = -1;
thread_local const void *tlPool = nullptr;

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

ThreadPool::ThreadPool(int threads, std::size_t queue_capacity)
{
    int n = std::max(1, threads);
    capacity = queue_capacity > 0
                   ? queue_capacity
                   : 2 * static_cast<std::size_t>(n);
    workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu);
        cvIdle.wait(lock, [this] { return inFlight == 0; });
        stopping = true;
    }
    cvWork.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    TG_ASSERT(task, "null task submitted");
    TG_ASSERT(tlPool != this,
              "pool workers must not submit into their own pool");
    {
        std::unique_lock<std::mutex> lock(mu);
        cvSpace.wait(lock,
                     [this] { return queue.size() < capacity; });
        queue.push_back(std::move(task));
        ++inFlight;
    }
    cvWork.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu);
    cvIdle.wait(lock, [this] { return inFlight == 0; });
    if (firstError) {
        auto err = std::exchange(firstError, nullptr);
        lock.unlock();
        std::rethrow_exception(err);
    }
}

int
ThreadPool::workerIndex()
{
    return tlWorkerIndex;
}

void
ThreadPool::workerLoop(int index)
{
    tlWorkerIndex = index;
    tlPool = this;
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
        cvSpace.notify_one();
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            if (!firstError)
                firstError = std::current_exception();
        }
        bool idle;
        {
            std::lock_guard<std::mutex> lock(mu);
            idle = --inFlight == 0;
        }
        if (idle)
            cvIdle.notify_all();
    }
}

void
parallelFor(std::size_t n, int jobs,
            const std::function<void(int worker, std::size_t index)> &fn)
{
    if (n == 0)
        return;
    std::size_t want = static_cast<std::size_t>(resolveJobs(jobs));
    int threads = static_cast<int>(std::min(want, n));
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(0, i);
        return;
    }
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(ThreadPool::workerIndex(), i); });
    pool.wait();
}

void
parallelForOn(ThreadPool &pool, std::size_t n,
              const std::function<void(int worker, std::size_t index)> &fn)
{
    if (n == 0)
        return;
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(ThreadPool::workerIndex(), i); });
    pool.wait();
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
