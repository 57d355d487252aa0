/**
 * @file
 * Work-scheduling primitives for parallel sweeps and ablations.
 *
 * The simulator's evaluation grids (benchmark x policy sweeps,
 * parameter ablations) are embarrassingly parallel: every task reads
 * shared immutable models and writes its own result slot. This layer
 * provides the scheduling glue:
 *
 *  - ThreadPool: a fixed set of workers fed from a bounded task
 *    queue (submission blocks while the queue is full, so producers
 *    cannot run unboundedly ahead of execution);
 *  - parallelFor(): fan an index range across a pool with a stable
 *    worker id per thread, so callers can keep one heavyweight
 *    context (e.g. a sim::Simulation) per worker;
 *  - resolveJobs(): the --jobs / TG_JOBS / hardware-concurrency
 *    resolution ladder shared by every driver;
 *  - ProgressSink: mutex-guarded progress lines for concurrent
 *    producers.
 *
 * Determinism contract: none of these primitives make results depend
 * on scheduling. A parallelFor() body that derives everything from
 * its index produces bit-identical output at any worker count.
 */

#ifndef TG_COMMON_EXEC_HH
#define TG_COMMON_EXEC_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace tg {
namespace exec {

/** Hardware thread count; always at least 1. */
int hardwareThreads();

/**
 * Resolve a worker count request: a positive `requested` wins;
 * otherwise the TG_JOBS environment variable (when set to a positive
 * integer); otherwise every hardware thread. Always at least 1.
 */
int resolveJobs(int requested);

/**
 * Thrown by cancellation points when their CancelToken has tripped.
 * what() distinguishes an explicit cancel ("cancelled") from a missed
 * deadline ("deadline exceeded") so callers can report the class.
 */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(bool deadline)
        : std::runtime_error(deadline ? "deadline exceeded"
                                      : "cancelled"),
          deadlineFlag(deadline)
    {
    }

    /** True when the trip came from a deadline, not an explicit
     *  cancel(). */
    bool deadlineExpired() const { return deadlineFlag; }

  private:
    bool deadlineFlag;
};

/**
 * Cooperative cancellation with an optional deadline.
 *
 * A token is shared between a controller (who calls cancel() or arms
 * a deadline) and workers (who poll cancelled() / throwIfCancelled()
 * at their natural checkpoints — the sweep engine checks per cell and
 * Simulation::run per epoch). Both sides may live on different
 * threads: the flag is atomic and cancel() is async-signal-safe.
 *
 * Cancellation is sticky — once tripped (explicitly or by the
 * deadline passing) the token stays cancelled. deadlineExpired()
 * records *why* it tripped; an explicit cancel() wins over a deadline
 * that passes later, because the first observation latches.
 */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Trip the token (sticky, thread-safe, async-signal-safe). */
    void cancel() { flag.store(true, std::memory_order_relaxed); }

    /** Arm an absolute deadline; tokens without one never expire. */
    void setDeadline(Clock::time_point when)
    {
        deadlineNs.store(
            when.time_since_epoch().count(),
            std::memory_order_relaxed);
    }

    /** Arm a deadline `ms` milliseconds from now. */
    void setDeadlineIn(std::uint64_t ms)
    {
        setDeadline(Clock::now() + std::chrono::milliseconds(ms));
    }

    /** Whether the token has tripped (checks the deadline too). */
    bool cancelled() const
    {
        if (flag.load(std::memory_order_relaxed))
            return true;
        const auto armed = deadlineNs.load(std::memory_order_relaxed);
        if (armed != 0 &&
            Clock::now().time_since_epoch().count() >= armed) {
            deadlineHit.store(true, std::memory_order_relaxed);
            flag.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    /** Whether the trip came from the deadline (false until
     *  cancelled() first observes it). */
    bool deadlineExpired() const
    {
        return deadlineHit.load(std::memory_order_relaxed);
    }

    /** Cancellation point: throws CancelledError once tripped. */
    void throwIfCancelled() const
    {
        if (cancelled())
            throw CancelledError(deadlineExpired());
    }

  private:
    mutable std::atomic<bool> flag{false};
    mutable std::atomic<bool> deadlineHit{false};
    /** Deadline as steady-clock ticks since epoch; 0 = none. */
    std::atomic<Clock::rep> deadlineNs{0};
};

/**
 * Fixed-size worker pool fed from a bounded FIFO task queue.
 *
 * submit() blocks while the queue is at capacity; wait() blocks until
 * every submitted task has finished and rethrows the first exception
 * any task raised. The destructor drains outstanding work before
 * joining. Tasks may not submit() into their own pool (the bounded
 * queue could deadlock); fan-out happens at the call site.
 */
class ThreadPool
{
  public:
    /**
     * @param threads        worker count (clamped to >= 1)
     * @param queue_capacity bound of the pending-task queue;
     *                       0 picks 2x the worker count
     */
    explicit ThreadPool(int threads, std::size_t queue_capacity = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task; blocks while the queue is full. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has completed, then rethrow
     * the first exception a task raised (if any). The pool remains
     * usable for further submissions afterwards.
     */
    void wait();

    int threadCount() const { return static_cast<int>(workers.size()); }

    /**
     * Index of the calling pool worker in [0, threadCount()), or -1
     * on threads that do not belong to a pool. Stable for the
     * lifetime of the pool, which lets callers keep per-worker
     * contexts without locking.
     */
    static int workerIndex();

  private:
    void workerLoop(int index);

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mu;
    std::condition_variable cvSpace; //!< producers: queue has room
    std::condition_variable cvWork;  //!< workers: queue has tasks
    std::condition_variable cvIdle;  //!< wait(): everything finished
    std::size_t capacity;
    std::size_t inFlight = 0; //!< queued plus currently executing
    bool stopping = false;
    std::exception_ptr firstError;
};

/**
 * Run fn(worker, index) for every index in [0, n), fanning across
 * resolveJobs(jobs) pool workers (never more than n). `worker` is a
 * stable id in [0, workers): keep per-worker heavyweight state in a
 * caller-owned array indexed by it. With one worker the calls happen
 * inline, in index order, with worker id 0.
 *
 * Exceptions from the body abort the fan-out and are rethrown.
 */
void parallelFor(std::size_t n, int jobs,
                 const std::function<void(int worker, std::size_t index)> &fn);

/**
 * parallelFor() over an existing pool: run fn(worker, index) for
 * every index in [0, n) on `pool`'s workers and wait for completion.
 * Callers with a per-frame or per-sample fan-out keep one long-lived
 * pool instead of paying thread creation on every call. The usual
 * pool rules apply: must not be called from one of `pool`'s own
 * workers, and `worker` is the pool's stable workerIndex().
 */
void parallelForOn(ThreadPool &pool, std::size_t n,
                   const std::function<void(int worker, std::size_t index)> &fn);

/**
 * Thread-safe progress reporter: one stderr line per completed task,
 * prefixed with a [done/total] counter. Lines from concurrent
 * workers never interleave mid-line.
 */
class ProgressSink
{
  public:
    /**
     * @param enabled when false, lines are counted but not printed
     * @param total   expected task count (for the [done/total] prefix)
     */
    ProgressSink(bool enabled, std::size_t total);

    /** Record one completed task and (when enabled) print `line`. */
    void completed(const std::string &line);

    /** Tasks recorded so far. */
    std::size_t done() const;

  private:
    bool enabled;
    std::size_t total;
    mutable std::mutex mu;
    std::size_t count = 0;
};

} // namespace exec
} // namespace tg

#endif // TG_COMMON_EXEC_HH
