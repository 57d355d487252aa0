#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <list>
#include <map>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cache/serialize.hh"
#include "common/counters.hh"
#include "common/exec.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "core/policy.hh"
#include "shard/worker.hh"
#include "sim/sweep.hh"
#include "workload/profile.hh"

namespace tg {
namespace serve {

namespace {

using shard::Frame;
using shard::FrameParser;
using shard::FrameType;
using shard::PumpStatus;

using Clock = std::chrono::steady_clock;

/** Drop a connection whose unsent outbound bytes exceed this (a
 *  client that stopped reading mid-stream). */
constexpr std::size_t kMaxOutboundBytes = std::size_t(256) << 20;

/** Retry hint carried in Busy replies [ms]. */
constexpr std::uint64_t kBusyRetryMs = 200;

std::uint64_t microsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t0)
            .count());
}

bool benchmarkExists(const std::string &name)
{
    for (const auto &p : workload::splashProfiles())
        if (p.name == name)
            return true;
    return false;
}

bool policyExists(std::uint32_t v)
{
    for (auto pk : core::allPolicyKinds())
        if (static_cast<std::uint32_t>(pk) == v)
            return true;
    return false;
}

/** Decode a ServeRun or ServeSweep payload as the sweep it asks for. */
bool decodeRequest(const Frame &frame, SweepMsg &out)
{
    if (frame.type == FrameType::ServeSweep)
        return decodeSweep(frame.payload, out);
    RunMsg run;
    if (!decodeRun(frame.payload, run))
        return false;
    out = asSweep(run);
    return true;
}

/** One accepted client connection (poll-thread state). */
struct Conn
{
    int fd = -1;
    std::uint64_t id = 0;
    FrameParser parser;
    std::vector<std::uint8_t> out; //!< unsent outbound bytes
    std::size_t outOff = 0;
    bool closing = false; //!< close once `out` drains
};

/** A Run/Sweep waiting for the executor (a run as its sweep). */
struct PendingRequest
{
    std::uint64_t connId = 0;
    bool isRun = false; //!< arrived as ServeRun: picks its counters
    SweepMsg sweep;
    /** Trips on client disconnect, ServeCancel, or deadline expiry
     *  (armed at admission). shared_ptr: the poll thread must reach
     *  the token of the request the executor currently owns. */
    std::shared_ptr<exec::CancelToken> cancel;
};

/** Executor-posted bytes bound for one connection. */
struct Completion
{
    std::uint64_t connId = 0;
    std::vector<std::uint8_t> bytes;
};

/** Warm simulation context: everything rebuilt on a cold start. */
struct Ctx
{
    std::uint64_t key = 0; //!< fnv1a over the setup blob
    floorplan::Chip chip;  //!< owned: Simulation keeps a reference
    sim::SimConfig cfg;
    std::unique_ptr<sim::Simulation> sim; //!< runner 0 of a fan-out
    sim::SweepContexts contexts;          //!< runners 1 .. width - 1
};

} // namespace

struct Server::Impl
{
    explicit Impl(const ServerOptions &o)
        : options(o), width(exec::resolveJobs(o.jobs))
    {
    }

    ServerOptions options;

    int listenFd = -1;
    int wakeRead = -1;
    int wakeWrite = -1;
    bool running = false;

    std::thread pollThread;
    std::thread execThread;

    std::atomic<bool> stopping{false};
    std::atomic<bool> execFinished{false};

    // Request queue (poll thread -> executor). activeConnId/token
    // describe the request the executor currently runs, so the poll
    // thread can cancel it on disconnect or ServeCancel.
    std::mutex reqMu;
    std::condition_variable reqCv;
    std::deque<PendingRequest> queue;
    std::uint64_t activeConnId = 0; //!< 0 = executor idle
    std::shared_ptr<exec::CancelToken> activeToken;

    // Completion queue (executor -> poll thread).
    std::mutex compMu;
    std::vector<Completion> completions;

    // Fan-out width of every request not at jobs 1, over the process
    // pool (exec::parallelFor); resolved once, at construction.
    const int width;

    // Warm-context LRU, touched only by the executor thread. std::list
    // because a Ctx must never relocate: its Simulation holds a
    // reference to its sibling chip member.
    std::list<Ctx> ctxCache;

    Clock::time_point startTime = Clock::now();

    // Live counters, updated in place (common/counters.hh); the
    // snapshot fills uptimeMicros and store.
    StatsReplyMsg live;

    // --- shared plumbing ---------------------------------------------

    void wake()
    {
        const std::uint8_t b = 0;
        // Best-effort: a full pipe already guarantees a pending wake.
        (void)!::write(wakeWrite, &b, 1);
    }

    void post(std::uint64_t connId, FrameType type,
              const std::vector<std::uint8_t> &payload)
    {
        Completion c;
        c.connId = connId;
        c.bytes = shard::encodeFrame(type, payload);
        {
            std::lock_guard<std::mutex> lock(compMu);
            completions.push_back(std::move(c));
        }
        wake();
    }

    static DoneMsg makeDone(DoneStatus status, std::uint64_t cells,
                            const std::string &error,
                            std::uint64_t retryAfterMs = 0)
    {
        DoneMsg m;
        m.ok = status == DoneStatus::Ok ? 1 : 0;
        m.status = static_cast<std::uint8_t>(status);
        m.cells = cells;
        m.error = error;
        m.retryAfterMs = retryAfterMs;
        return m;
    }

    void postDone(std::uint64_t connId, DoneStatus status,
                  std::uint64_t cells, const std::string &error)
    {
        post(connId, FrameType::ServeDone,
             encodeDone(makeDone(status, cells, error)));
    }

    StatsReplyMsg snapshot() const
    {
        StatsReplyMsg s;
        counters::load(live, s);
        s.uptimeMicros = microsSince(startTime);
        s.store = cache::store().stats();
        return s;
    }

    // --- executor thread ---------------------------------------------

    /** Resolve the warm context for a setup blob; null when the blob
     *  is invalid. */
    Ctx *contextFor(const std::vector<std::uint8_t> &setup)
    {
        const std::uint64_t key =
            bytes::fnv1a(setup.data(), setup.size());
        for (auto it = ctxCache.begin(); it != ctxCache.end(); ++it) {
            if (it->key != key)
                continue;
            ctxCache.splice(ctxCache.begin(), ctxCache, it);
            counters::add(live.contextsReused);
            return &ctxCache.front();
        }
        shard::ChipKind kind{};
        int chip_arg = 0;
        sim::SimConfig cfg;
        if (!shard::decodeBasicSetup(setup, kind, chip_arg, cfg))
            return nullptr;
        ctxCache.emplace_front();
        Ctx &ctx = ctxCache.front();
        ctx.key = key;
        ctx.cfg = cfg;
        ctx.chip = kind == shard::ChipKind::Power8
                       ? floorplan::buildPower8Chip()
                       : floorplan::buildMiniChip(chip_arg);
        ctx.sim = std::make_unique<sim::Simulation>(ctx.chip, ctx.cfg);
        counters::add(live.contextsBuilt);
        const std::size_t cap = static_cast<std::size_t>(
            std::max(1, options.contextCacheSize));
        while (ctxCache.size() > cap)
            ctxCache.pop_back();
        return &ctx;
    }

    /**
     * Every check of a Run/Sweep request, in one place: the grid
     * labels, the cell indices, the record options and (through
     * contextFor and the setup decoder) the setup blob. Returns an
     * empty string and the request's warm context, or the reason the
     * request is refused. Every value known to reach an assertion
     * of the simulator, or to size the request's work past the caps,
     * is refused here or by the setup decoder.
     */
    std::string validate(const SweepMsg &m, Ctx *&ctx)
    {
        ctx = nullptr;
        if (m.benchmarks.empty() || m.policies.empty())
            return "empty benchmark or policy list";
        for (const auto &b : m.benchmarks)
            if (!benchmarkExists(b))
                return "unknown benchmark '" + b + "'";
        for (auto pk : m.policies)
            if (!policyExists(pk))
                return "unknown policy kind";
        const std::uint64_t n_cells =
            static_cast<std::uint64_t>(m.benchmarks.size()) *
            m.policies.size();
        for (auto c : m.cells)
            if (c >= n_cells)
                return "sweep cell index out of range";
        if (m.noiseSamplesOverride < -1 ||
            m.noiseSamplesOverride > shard::kMaxNoiseSamples)
            return "noise sample override out of range";
        Ctx *resolved = contextFor(m.setup);
        if (!resolved)
            return "invalid setup blob";
        const auto n_vrs =
            static_cast<std::int64_t>(resolved->chip.plan.vrs().size());
        if (m.trackVr != -1 && (m.trackVr < 0 || m.trackVr >= n_vrs))
            return "tracked VR " + std::to_string(m.trackVr) +
                   " is not a VR of the chip";
        ctx = resolved;
        return {};
    }

    /** Execute one request: at jobs 1 inline on the context's
     *  Simulation (a run is its one-cell sweep at jobs 1), at any other
     *  jobs value `width` wide, runner 0 on that same Simulation. */
    void execute(const PendingRequest &req)
    {
        const Clock::time_point t0 = Clock::now();
        const SweepMsg &m = req.sweep;
        Ctx *ctx = nullptr;
        const std::string err = validate(m, ctx);
        if (!ctx) {
            counters::add(live.requestsRejected);
            postDone(req.connId, DoneStatus::Error, 0, err);
            return;
        }
        // The frame kind only picks which counters the request adds to.
        std::uint64_t &requests =
            req.isRun ? live.requestsRun : live.requestsSweep;
        std::uint64_t &micros =
            req.isRun ? live.runMicros : live.sweepMicros;

        std::vector<core::PolicyKind> policies;
        policies.reserve(m.policies.size());
        for (auto pk : m.policies)
            policies.push_back(static_cast<core::PolicyKind>(pk));
        std::vector<std::size_t> cells;
        if (m.cells.empty()) {
            cells.resize(m.benchmarks.size() * m.policies.size());
            for (std::size_t c = 0; c < cells.size(); ++c)
                cells[c] = c;
        } else {
            cells.assign(m.cells.begin(), m.cells.end());
        }

        sim::RecordOptions opts = recordOptions(m);
        opts.cancel = req.cancel.get();
        std::atomic<std::uint64_t> streamed{0};
        // On cancellation runSweepCells throws after the completed
        // cells were emitted; the catch in execLoop posts the final
        // status. Cells streamed before the trip still count, and so
        // does the time spent on them.
        auto account = [&] {
            counters::add(live.cellsServed, streamed.load());
            counters::add(micros, microsSince(t0));
        };
        try {
            sim::runSweepCells(
                *ctx->sim, m.benchmarks, policies, cells,
                m.jobs == 1 ? 1 : width, opts,
                [&](std::size_t cell, sim::RunResult &&r) {
                    CellMsg out;
                    out.cell = cell;
                    out.result = cache::encodeRunResult(r);
                    post(req.connId, FrameType::ServeCell,
                         encodeCell(out));
                    streamed.fetch_add(1, std::memory_order_relaxed);
                },
                &ctx->contexts);
        } catch (...) {
            account();
            throw;
        }
        postDone(req.connId, DoneStatus::Ok, streamed.load(), {});
        counters::add(requests);
        account();
    }

    void execLoop()
    {
        for (;;) {
            PendingRequest req;
            {
                std::unique_lock<std::mutex> lock(reqMu);
                reqCv.wait(lock, [&] {
                    return !queue.empty() || stopping.load();
                });
                if (queue.empty())
                    break; // stopping, and nothing left to drain
                req = std::move(queue.front());
                queue.pop_front();
                counters::set(live.queueDepth, queue.size());
                activeConnId = req.connId;
                activeToken = req.cancel;
            }
            counters::set(live.activeRequests, 1);
            try {
                execute(req);
            } catch (const exec::CancelledError &e) {
                // The sweep unwound at a cell/epoch boundary; the
                // contexts in the LRU are intact (each run resets
                // its scratch on entry), so the daemon keeps
                // serving. Tell the client — if it is still there —
                // why its stream ended early.
                const bool deadline = e.deadlineExpired();
                counters::add(deadline ? live.requestsDeadline
                                       : live.requestsCancelled);
                postDone(req.connId,
                         deadline ? DoneStatus::DeadlineExpired
                                  : DoneStatus::Cancelled,
                         0, e.what());
            } catch (const std::exception &e) {
                // A request must never take the daemon down.
                counters::add(live.requestsRejected);
                postDone(req.connId, DoneStatus::Error, 0, e.what());
            }
            counters::set(live.activeRequests, 0);
            {
                std::lock_guard<std::mutex> lock(reqMu);
                activeConnId = 0;
                activeToken.reset();
            }
        }
        execFinished.store(true);
        wake();
    }

    // --- poll thread -------------------------------------------------

    void appendOut(Conn &c, FrameType type,
                   const std::vector<std::uint8_t> &payload)
    {
        const std::vector<std::uint8_t> frame =
            shard::encodeFrame(type, payload);
        c.out.insert(c.out.end(), frame.begin(), frame.end());
    }

    /** Non-blocking outbound flush; false when the peer is gone. */
    bool flushOut(Conn &c)
    {
        while (c.outOff < c.out.size()) {
            const long n =
                io::chaosWrite(c.fd, c.out.data() + c.outOff,
                               c.out.size() - c.outOff);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    return true;
                return false;
            }
            c.outOff += static_cast<std::size_t>(n);
        }
        c.out.clear();
        c.outOff = 0;
        return true;
    }

    /** Unsent outbound bytes beyond the cap = a reader that stopped
     *  reading mid-stream; the connection is pathological. */
    bool overOutboundCap(const Conn &c) const
    {
        return c.out.size() - c.outOff > kMaxOutboundBytes;
    }

    /**
     * Admission control: accept the request (arming its deadline so
     * queue wait counts against it), or reject when the queue is at
     * maxQueueDepth. The reject happens here on the poll thread —
     * overload answers in microseconds, it never waits in line.
     */
    bool enqueueRequest(PendingRequest &&req)
    {
        req.cancel = std::make_shared<exec::CancelToken>();
        if (req.sweep.deadlineMs > 0)
            req.cancel->setDeadlineIn(req.sweep.deadlineMs);
        {
            std::lock_guard<std::mutex> lock(reqMu);
            if (queue.size() >=
                static_cast<std::size_t>(
                    std::max(0, options.maxQueueDepth))) {
                counters::add(live.requestsBusy);
                return false;
            }
            queue.push_back(std::move(req));
            counters::set(live.queueDepth, queue.size());
        }
        reqCv.notify_one();
        return true;
    }

    /**
     * Trip every request of one connection: queued ones are removed
     * here (count returned), an in-flight one has its token
     * cancelled and unwinds through the executor. Poll thread only.
     */
    std::size_t cancelRequestsFor(std::uint64_t connId,
                                  bool *activeTripped)
    {
        std::size_t removed = 0;
        bool tripped = false;
        {
            std::lock_guard<std::mutex> lock(reqMu);
            for (auto it = queue.begin(); it != queue.end();) {
                if (it->connId == connId) {
                    it->cancel->cancel();
                    it = queue.erase(it);
                    ++removed;
                } else {
                    ++it;
                }
            }
            counters::set(live.queueDepth, queue.size());
            if (activeConnId == connId && activeToken) {
                activeToken->cancel();
                tripped = true;
            }
        }
        counters::add(live.requestsCancelled, removed);
        if (activeTripped)
            *activeTripped = tripped;
        return removed;
    }

    /** Poll-thread frame dispatch; false drops the connection. */
    bool handleFrame(Conn &c, const Frame &frame)
    {
        switch (frame.type) {
        case FrameType::Ping:
            counters::add(live.requestsPing);
            appendOut(c, FrameType::Pong, {});
            return true;
        case FrameType::ServeStats:
            counters::add(live.requestsStats);
            appendOut(c, FrameType::ServeStatsReply,
                      encodeStatsReply(snapshot()));
            return true;
        case FrameType::Shutdown: {
            // Ack before draining so the client's blocking wait ends
            // as soon as the drain is scheduled.
            appendOut(c, FrameType::ServeDone,
                      encodeDone(makeDone(DoneStatus::Ok, 0, {})));
            c.closing = true;
            stopping.store(true);
            return true;
        }
        case FrameType::ServeCancel: {
            bool activeTripped = false;
            const std::size_t removed =
                cancelRequestsFor(c.id, &activeTripped);
            // A removed queued request never reaches the executor, so
            // its Done comes from here; an in-flight one unwinds and
            // the executor posts its own. Nothing to cancel is a
            // silent no-op — the request may just have finished, and
            // its real Done is already on the wire; an extra reply
            // would desync the client's request/response pairing.
            (void)activeTripped;
            for (std::size_t i = 0; i < removed; ++i)
                appendOut(c, FrameType::ServeDone,
                          encodeDone(makeDone(DoneStatus::Cancelled,
                                              0, "cancelled")));
            return true;
        }
        case FrameType::ServeRun:
        case FrameType::ServeSweep: {
            // From admission on, a run is the one-cell sweep it
            // decodes to: one queue entry shape, one executor path.
            PendingRequest req;
            req.connId = c.id;
            req.isRun = frame.type == FrameType::ServeRun;
            if (!decodeRequest(frame, req.sweep)) {
                counters::add(live.requestsRejected);
                appendOut(c, FrameType::ServeDone,
                          encodeDone(makeDone(
                              DoneStatus::Error, 0,
                              req.isRun ? "malformed ServeRun payload"
                                        : "malformed ServeSweep payload")));
                return true;
            }
            if (!enqueueRequest(std::move(req)))
                appendOut(c, FrameType::ServeDone,
                          encodeDone(makeDone(
                              DoneStatus::Busy, 0, "queue full",
                              kBusyRetryMs)));
            return true;
        }
        default:
            // Server-bound streams carry nothing else; a client that
            // speaks another message is broken.
            return false;
        }
    }

    void pollLoop()
    {
        std::map<std::uint64_t, Conn> conns;
        std::uint64_t nextId = 1;
        // Grace period for flushing replies once the drain finishes:
        // a client that stopped reading must not wedge shutdown.
        Clock::time_point drainDeadline{};

        auto dropConn = [&](std::uint64_t id) {
            auto it = conns.find(id);
            if (it == conns.end())
                return;
            // A vanished client must not keep burning executor time:
            // trip its queued and in-flight requests. The executor's
            // Done for the tripped one lands in the completion drain
            // and is discarded there (connection gone).
            cancelRequestsFor(id, nullptr);
            ::close(it->second.fd);
            conns.erase(it);
            if (options.verbose)
                inform("tg_serve: client ", id, " dropped");
            // An adopted connection is the server's only client.
            if (options.connectedFd >= 0)
                stopping.store(true);
        };

        auto addConn = [&](int fd) {
            io::setNonBlocking(fd, true);
            const std::uint64_t id = nextId++;
            Conn c;
            c.fd = fd;
            c.id = id;
            conns.emplace(id, std::move(c));
            if (options.verbose)
                inform("tg_serve: client ", id, " connected");
        };
        if (options.connectedFd >= 0)
            addConn(options.connectedFd);

        for (;;) {
            const bool draining = stopping.load();
            if (draining) {
                // The executor may be parked waiting for work; make
                // sure it observes the stop and drains out.
                reqCv.notify_all();
            }

            const bool accepting = !draining && listenFd >= 0;
            std::vector<pollfd> fds;
            std::vector<std::uint64_t> fdConn;
            fds.push_back({wakeRead, POLLIN, 0});
            fdConn.push_back(0);
            if (accepting) {
                fds.push_back({listenFd, POLLIN, 0});
                fdConn.push_back(0);
            }
            const std::size_t firstConn = fds.size();
            for (auto &entry : conns) {
                short events = POLLIN;
                if (entry.second.outOff < entry.second.out.size())
                    events |= POLLOUT;
                fds.push_back({entry.second.fd, events, 0});
                fdConn.push_back(entry.first);
            }

            const int rv = ::poll(
                fds.data(), static_cast<nfds_t>(fds.size()), 100);
            if (rv < 0 && errno != EINTR) {
                warn("tg_serve: poll() failed: ",
                     std::strerror(errno));
                break;
            }

            // Drain the wake pipe (level-triggered; contents are
            // meaningless, the wake itself is the message).
            if (fds[0].revents & POLLIN) {
                std::uint8_t buf[256];
                while (::read(wakeRead, buf, sizeof buf) > 0) {
                }
            }

            // Move executor completions into connection buffers.
            {
                std::vector<Completion> batch;
                {
                    std::lock_guard<std::mutex> lock(compMu);
                    batch.swap(completions);
                }
                for (auto &comp : batch) {
                    auto it = conns.find(comp.connId);
                    if (it == conns.end())
                        continue; // client left mid-request
                    it->second.out.insert(it->second.out.end(),
                                          comp.bytes.begin(),
                                          comp.bytes.end());
                }
                // Backpressure of last resort: a connection that
                // stopped reading while a sweep streams at it grows
                // without bound — drop it (which also cancels its
                // request) instead of buffering forever.
                std::vector<std::uint64_t> overCap;
                for (auto &entry : conns)
                    if (overOutboundCap(entry.second))
                        overCap.push_back(entry.first);
                for (std::uint64_t id : overCap)
                    dropConn(id);
            }

            // Accept new clients.
            if (accepting)
                for (;;) {
                    const int cfd = ::accept(listenFd, nullptr,
                                             nullptr);
                    if (cfd < 0)
                        break;
                    addConn(cfd);
                }

            // Service ready connections.
            for (std::size_t k = firstConn; k < fds.size(); ++k) {
                auto it = conns.find(fdConn[k]);
                if (it == conns.end())
                    continue;
                Conn &c = it->second;
                if (fds[k].revents & POLLOUT) {
                    if (!flushOut(c)) {
                        dropConn(c.id);
                        continue;
                    }
                }
                if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
                    const PumpStatus st = shard::pumpFrames(
                        c.fd, c.parser, [&](const Frame &frame) {
                            return handleFrame(c, frame);
                        });
                    if (st != PumpStatus::Ok) {
                        // Flush whatever is buffered (e.g. the error
                        // reply preceding a rejection) best-effort,
                        // then drop.
                        flushOut(c);
                        dropConn(c.id);
                        continue;
                    }
                }
                // Opportunistic flush: most replies fit the socket
                // buffer, so this usually completes inline and the
                // next poll() round needs no POLLOUT at all.
                if (!flushOut(c)) {
                    dropConn(c.id);
                    continue;
                }
                if (c.closing && c.out.empty())
                    dropConn(c.id);
            }

            if (draining && execFinished.load()) {
                if (drainDeadline == Clock::time_point{})
                    drainDeadline =
                        Clock::now() + std::chrono::seconds(5);
                bool pendingOut = false;
                {
                    std::lock_guard<std::mutex> lock(compMu);
                    pendingOut = !completions.empty();
                }
                for (auto &entry : conns)
                    pendingOut =
                        pendingOut || !entry.second.out.empty();
                if (!pendingOut || Clock::now() > drainDeadline)
                    break;
            }
        }

        for (auto &entry : conns)
            ::close(entry.second.fd);
    }
};

Server::Server(const ServerOptions &options)
    : impl(std::make_unique<Impl>(options))
{
}

Server::~Server()
{
    requestStop();
    wait();
    if (impl->listenFd >= 0)
        ::close(impl->listenFd);
    if (impl->wakeRead >= 0)
        ::close(impl->wakeRead);
    if (impl->wakeWrite >= 0)
        ::close(impl->wakeWrite);
}

bool Server::start(std::string *err)
{
    // A client vanishing mid-reply must surface as a failed write,
    // not a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    if (impl->options.connectedFd < 0) {
        impl->listenFd =
            io::listenUnix(impl->options.socketPath, 16, err);
        if (impl->listenFd < 0)
            return false;
        io::setNonBlocking(impl->listenFd, true);
    }

    int pipefd[2] = {-1, -1};
    if (::pipe(pipefd) != 0) {
        if (err)
            *err = "pipe() failed";
        if (impl->listenFd >= 0)
            ::close(impl->listenFd);
        impl->listenFd = -1;
        return false;
    }
    impl->wakeRead = pipefd[0];
    impl->wakeWrite = pipefd[1];
    io::setNonBlocking(impl->wakeRead, true);
    io::setNonBlocking(impl->wakeWrite, true);

    impl->startTime = Clock::now();
    impl->pollThread = std::thread([this] { impl->pollLoop(); });
    impl->execThread = std::thread([this] { impl->execLoop(); });
    impl->running = true;
    if (impl->options.verbose && impl->listenFd >= 0)
        inform("tg_serve: listening on ", impl->options.socketPath,
               " (fan-out width ", impl->width, ")");
    return true;
}

void Server::requestStop()
{
    impl->stopping.store(true);
    if (impl->wakeWrite >= 0)
        impl->wake();
}

void Server::wait()
{
    if (!impl->running)
        return;
    if (impl->pollThread.joinable())
        impl->pollThread.join();
    if (impl->execThread.joinable())
        impl->execThread.join();
    impl->running = false;
    if (impl->listenFd >= 0)
        ::unlink(impl->options.socketPath.c_str());
}

const std::string &Server::socketPath() const
{
    return impl->options.socketPath;
}

StatsReplyMsg Server::statsSnapshot() const
{
    return impl->snapshot();
}

} // namespace serve
} // namespace tg
