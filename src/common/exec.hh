/**
 * @file
 * Work-scheduling primitives for parallel sweeps, runs and requests.
 *
 * The simulator fans out at two levels: the cells of an evaluation
 * grid (benchmark x policy sweeps, parameter ablations, served
 * requests) and, inside one run, the noise windows of its VDD
 * domains. Every task reads shared immutable models and writes its
 * own result slot. This layer provides the scheduling glue:
 *
 *  - parallelFor(): fan an index range out over the process-wide
 *    pool, the only source of library threads, with a runner id per
 *    call so callers can keep one heavyweight context (e.g. a
 *    sim::Simulation) per runner;
 *  - ThreadPool: a set of worker threads fed from one FIFO queue;
 *    parallelForOn() fans out over a caller-owned one;
 *  - resolveJobs(): the --jobs / TG_JOBS / hardware-concurrency
 *    resolution ladder shared by every driver;
 *  - ProgressSink: mutex-guarded progress lines for concurrent
 *    producers.
 *
 * A process forked without exec inherits the pool but none of its
 * threads, so such a child must not fan out. The library never
 * forks; only death tests do.
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
 * integer); otherwise every hardware thread. Always at least 1. An
 * invalid TG_JOBS is reported once per process, however many
 * fan-outs resolve it.
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
 * Worker threads fed from one FIFO queue. Work enters only through
 * parallelFor()/parallelForOn(), whose runners never block on the
 * pool, so every queued task runs to completion. The destructor runs
 * what is queued, then joins.
 */
class ThreadPool
{
  public:
    /** @param threads worker count (clamped to >= 1) */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Index of the calling pool worker in [0, its pool's thread
     * count), or -1 on threads that do not belong to a pool.
     */
    static int workerIndex();

  private:
    friend void parallelFor(
        std::size_t n, int jobs,
        const std::function<void(int worker, std::size_t index)> &fn);
    friend void parallelForOn(
        ThreadPool &pool, std::size_t n,
        const std::function<void(int worker, std::size_t index)> &fn);

    /** Run fn over [0, n) with `width` runners on `pool`, or inline
     *  when width is 1; see parallelFor(). */
    static void
    fanOut(ThreadPool *pool, std::size_t n, int width,
           const std::function<void(int worker, std::size_t index)> &fn);
    /** Start workers until there are at least `threads`. */
    void grow(int threads);
    void workerLoop(int index);

    std::mutex mu;
    std::vector<std::thread> workers; //!< guarded by mu (grow)
    std::deque<std::function<void()>> queue; //!< guarded by mu
    std::condition_variable cvWork;
    bool stopping = false; //!< guarded by mu
};

/**
 * Run fn(worker, index) for every index in [0, n) on the
 * process-wide pool. The call takes width = min(resolveJobs(jobs), n)
 * runners; each claims indices from a counter of its own call, and
 * `worker` is the runner's id in [0, width): keep per-runner
 * heavyweight state in a caller-owned array of `width` slots. The
 * pool is created on the first fan-out, grows to the widest one the
 * process asks for and is never destroyed, so exit() from anywhere
 * joins no thread.
 *
 * A call with one runner, or made on a pool thread (a nested
 * fan-out), runs inline in index order with worker id 0 and does not
 * read TG_JOBS. The first exception a body raises stops the runners
 * claiming further indices and is rethrown to the caller; another
 * call's errors never reach it.
 */
void parallelFor(std::size_t n, int jobs,
                 const std::function<void(int worker, std::size_t index)> &fn);

/**
 * parallelFor() over a caller-owned pool, with one runner per pool
 * thread (never more than n). Callers that time the fan-out itself
 * keep a pool of a known width this way.
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
