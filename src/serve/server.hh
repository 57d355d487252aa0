/**
 * @file
 * The persistent sweep server (`tg::serve`).
 *
 * A daemon process pays the expensive per-process warm-up — thermal
 * and PDN factorisations, predictor calibration, the in-memory
 * ArtifactStore — once, then answers Run/Sweep requests over a
 * Unix-domain socket for its whole lifetime. A repeat sweep against
 * a warm daemon skips straight to cache hits, which is the entire
 * point: the cold-start cost that dominates short CLI invocations
 * amortises to zero (bench/serve_latency measures the ladder).
 *
 * Architecture: two threads; cells fan out on the process pool.
 *
 *   poll thread     owns every descriptor: the listening socket (or
 *                   one adopted connection instead), a self-pipe for
 *                   wake-ups, and one non-blocking fd per client with
 *                   an outbound buffer. It decodes
 *                   frames, answers Ping/Stats inline, and enqueues
 *                   Run/Sweep work for the executor — a run as the
 *                   one-cell sweep it is (asSweep), so from admission
 *                   on both kinds take one path.
 *   executor thread pops requests FIFO, validates each one and
 *                   resolves its warm simulation context (LRU cache
 *                   keyed by the setup blob), and runs its cells: a
 *                   jobs-1 request inline on the context's own
 *                   Simulation, any other on the process pool,
 *                   ServerOptions::jobs wide, with runner 0 on that
 *                   same Simulation. It posts result frames back
 *                   through the poll thread's completion queue.
 *
 * Scheduling is deliberately FIFO one-request-at-a-time: requests
 * parallelise internally across the pool, so interleaving two sweeps
 * would only thrash the context cache without adding throughput.
 *
 * Bit-identity: a served result is produced by the same
 * Simulation::run/runSweepCells code path as a direct in-process
 * call, and every run is a deterministic function of (chip, config,
 * benchmark, policy, opts) — so the bytes streamed back are
 * bit-identical to a local computation at any jobs count
 * (tests/test_serve_run.cc asserts this end to end).
 *
 * A malformed or invalid request gets an error DoneMsg (or, for a
 * corrupt frame stream, a dropped connection) — never a daemon
 * abort: all client input is handled by non-fatal decoders, and one
 * validator refuses the values known to reach a simulator assertion
 * (unknown labels, out-of-range cells, tracked VR or sample override,
 * setup values the simulator asserts on) or past its work caps before
 * execution.
 *
 * Robustness: every accepted Run/Sweep carries a CancelToken. The
 * token trips when the client disconnects, sends ServeCancel, or the
 * request's deadlineMs (armed at admission, so queue wait counts)
 * expires; the executing sweep observes it at the next cell/epoch
 * boundary, unwinds via exec::CancelledError, and the worker
 * contexts return to the LRU intact — the daemon then serves the
 * next request bit-identically. Admission control bounds the queue
 * (maxQueueDepth): an over-limit request is answered immediately
 * with DoneStatus::Busy plus a fixed 200 ms retry hint, from the poll
 * thread, so overload degrades to fast rejections instead of
 * unbounded memory.
 * A connection whose outbound buffer exceeds a fixed 256 MiB (a
 * reader that stopped reading mid-stream) is dropped and its request
 * cancelled.
 */

#ifndef TG_SERVE_SERVER_HH
#define TG_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/protocol.hh"

namespace tg {
namespace serve {

struct ServerOptions
{
    /** Listening address (resolveSocketPath helps); ignored when
     *  connectedFd is set. */
    std::string socketPath;
    /** Alternative address: serve this one already-connected stream
     *  descriptor (taken over) as the only client, and drain and exit
     *  once it closes. A sharded-sweep endpoint serves its
     *  coordinator's socketpair end this way, so it cannot outlive
     *  the coordinator. */
    int connectedFd = -1;
    /** Fan-out width of every request not at jobs 1; 0 =
     *  exec::resolveJobs ladder (TG_JOBS, hardware concurrency). */
    int jobs = 0;
    /** Warm simulation contexts kept (LRU); each holds a chip's
     *  factorisations, predictor fit and one Simulation per runner
     *  of the widest fan-out it has served. */
    int contextCacheSize = 4;
    /** Admission bound: Run/Sweep requests waiting for the executor
     *  beyond this get an immediate DoneStatus::Busy. */
    int maxQueueDepth = 64;
    bool verbose = false;
};

class Server
{
  public:
    explicit Server(const ServerOptions &options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen (or adopt connectedFd) and spawn the service
     *  threads. False (with a message in *err) when the socket cannot
     *  be claimed — e.g. a live server already owns the path. */
    bool start(std::string *err);

    /**
     * Begin a graceful drain: stop accepting connections, finish
     * every queued request, flush outbound buffers, then shut down.
     * Async-signal-safe (an atomic store plus a pipe write), so
     * SIGINT/SIGTERM handlers may call it directly.
     */
    void requestStop();

    /** Block until the drain completes and both threads have exited
     *  (with connectedFd: until the peer has closed it). */
    void wait();

    const std::string &socketPath() const;

    /** Counters snapshot (same data the wire Stats reply carries). */
    StatsReplyMsg statsSnapshot() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace serve
} // namespace tg

#endif // TG_SERVE_SERVER_HH
