#include "serve/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <set>

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#endif

#include "common/logging.hh"
#include "serve/server.hh"
#include "shard/partition.hh"
#include "workload/profile.hh"

namespace tg {
namespace serve {

namespace {

/** Endpoint-mode argv: `<binary> --tg-endpoint <fd> <jobs>`. */
constexpr const char *kEndpointFlag = "--tg-endpoint";

} // namespace

bool isEndpointInvocation(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], kEndpointFlag))
            return true;
    return false;
}

#ifdef __unix__

namespace {

using shard::Frame;
using shard::FrameType;
using shard::PumpStatus;

using Clock = std::chrono::steady_clock;

/** Poll tick; also the silence after which a busy endpoint is
 *  pinged [ms]. */
constexpr int kTickMs = 100;

/** Coordinator-side view of one endpoint process. */
struct Endpoint
{
    pid_t pid = -1;
    int fd = -1; //!< coordinator's socketpair end
    shard::FrameParser parser;
    bool alive = false;
    bool busy = false; //!< a ServeSweep is in flight
    /** Cells of the in-flight shard not yet received. */
    std::set<std::uint64_t> outstanding;
    Clock::time_point lastHeard;
    Clock::time_point pingSent{}; //!< default = no Ping in flight
};

/** Parsed TG_SHARD_TEST_DIE hook (see coordinator.hh). */
struct DieHook
{
    bool armed = false;
    std::size_t endpoint = 0;
    long afterCells = 0; //!< counts down per cell of `endpoint`
    int signal = SIGKILL;
};

DieHook parseDieHook()
{
    DieHook hook;
    const char *env = std::getenv("TG_SHARD_TEST_DIE");
    if (!env || !*env)
        return hook;
    unsigned endpoint = 0;
    long after = 0;
    char form[8] = {};
    const int n =
        std::sscanf(env, "%u:%ld:%7s", &endpoint, &after, form);
    if (n == 2 || (n == 3 && !std::strcmp(form, "stop"))) {
        hook.armed = true;
        hook.endpoint = endpoint;
        hook.afterCells = after;
        hook.signal = n == 3 ? SIGSTOP : SIGKILL;
    } else {
        warn("TG_SHARD_TEST_DIE value '", env,
             "' is not '<endpoint>:<afterCells>[:stop]'; ignoring");
    }
    return hook;
}

std::string selfBinaryPath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    TG_ASSERT(n > 0, "cannot resolve /proc/self/exe");
    buf[n] = '\0';
    return std::string(buf);
}

/**
 * Fork and exec one endpoint on a fresh socketpair. Both ends are
 * close-on-exec, so the child keeps exactly its own end (cleared
 * after fork) and no sibling's. Between fork and exec the child
 * makes only async-signal-safe calls: the coordinator may be
 * multithreaded.
 */
Endpoint spawnEndpoint(const std::string &binary, std::uint32_t jobs)
{
    int sv[2] = {-1, -1};
    TG_ASSERT(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0,
                           sv) == 0,
              "socketpair() failed spawning a sweep endpoint");
    const std::string fdArg = std::to_string(sv[1]);
    const std::string jobsArg = std::to_string(jobs);
    char *argv[] = {const_cast<char *>(binary.c_str()),
                    const_cast<char *>(kEndpointFlag),
                    const_cast<char *>(fdArg.c_str()),
                    const_cast<char *>(jobsArg.c_str()), nullptr};
    const pid_t pid = ::fork();
    TG_ASSERT(pid >= 0, "fork() failed spawning a sweep endpoint");
    if (pid == 0) {
        if (::fcntl(sv[1], F_SETFD, 0) == 0)
            ::execv(binary.c_str(), argv);
        ::_exit(127);
    }
    ::close(sv[1]);
    Endpoint ep;
    ep.pid = pid;
    ep.fd = sv[0];
    ep.alive = true;
    ep.lastHeard = Clock::now();
    return ep;
}

/** Wait up to graceMs for an endpoint to exit on its own, then
 *  SIGKILL and reap it. */
void reap(pid_t pid, int graceMs)
{
    for (int waited = 0; waited < graceMs; waited += 5) {
        if (::waitpid(pid, nullptr, WNOHANG) == pid)
            return;
        struct timespec ts = {0, 5 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
}

} // namespace

sim::SweepResult runShardedSweep(const ShardedSweepOptions &options,
                                 ShardedSweepStats *stats_out)
{
    TG_ASSERT(options.opts.faultScenario == nullptr,
              "fault scenarios cannot travel as a pointer; a sweep "
              "endpoint rebuilds its context from the setup blob");

    // Writing to an endpoint that just died must surface as a failed
    // write, not a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    // Every shard is this request with its own cell list.
    SweepMsg req;
    req.setup = options.setup;
    req.benchmarks = options.benchmarks;
    if (req.benchmarks.empty())
        for (const auto &p : workload::splashProfiles())
            req.benchmarks.push_back(p.name);
    // Fail on unknown names before any process is spawned.
    for (const auto &name : req.benchmarks)
        workload::profileByName(name);
    for (auto pk : options.policies.empty() ? core::allPolicyKinds()
                                            : options.policies)
        req.policies.push_back(static_cast<std::uint32_t>(pk));
    req.jobs = static_cast<std::uint32_t>(
        std::max(0, options.jobsPerWorker));
    setRecordOptions(req, options.opts);

    sim::SweepResult sweep = emptyGrid(req);
    const std::size_t n_policies = req.policies.size();
    const std::size_t n_cells = req.benchmarks.size() * n_policies;
    const int processes = std::max(1, options.processes);

    ShardedSweepStats stats;
    stats.cellsTotal = n_cells;

    std::deque<std::vector<std::uint64_t>> queue;
    for (auto &shard : shard::partitionCells(n_cells, processes))
        queue.push_back(std::move(shard));
    stats.shardsPlanned = static_cast<int>(queue.size());

    const std::string binary = selfBinaryPath();
    std::vector<Endpoint> endpoints;
    endpoints.reserve(static_cast<std::size_t>(processes));
    for (int i = 0; i < processes; ++i) {
        endpoints.push_back(spawnEndpoint(binary, req.jobs));
        ++stats.workersSpawned;
    }

    std::vector<bool> received(n_cells, false);
    std::size_t receivedCount = 0;
    DieHook die = parseDieHook();

    // Death handling: reap the process and re-queue every cell it
    // was assigned but never delivered. The remnant goes to the front
    // of the queue — it is the oldest work and likely blocks sweep
    // completion.
    auto onDeath = [&](Endpoint &ep) {
        if (!ep.alive)
            return;
        ep.alive = false;
        ++stats.workerDeaths;
        ::close(ep.fd);
        ep.fd = -1;
        reap(ep.pid, 0);
        if (!ep.outstanding.empty()) {
            queue.emplace_front(ep.outstanding.begin(),
                                ep.outstanding.end());
            ep.outstanding.clear();
            ++stats.shardsReassigned;
        }
    };

    auto dispatch = [&](Endpoint &ep) {
        if (!ep.alive || ep.busy || queue.empty())
            return;
        req.cells = std::move(queue.front());
        queue.pop_front();
        ep.outstanding = std::set<std::uint64_t>(req.cells.begin(),
                                                 req.cells.end());
        if (!shard::writeFrameToFd(ep.fd, FrameType::ServeSweep,
                                   encodeSweep(req))) {
            onDeath(ep);
            return;
        }
        ep.busy = true;
        ++stats.shardsDispatched;
    };

    auto handleFrame = [&](std::size_t i, const Frame &frame) -> bool {
        Endpoint &ep = endpoints[i];
        ep.lastHeard = Clock::now();
        switch (frame.type) {
        case FrameType::Pong:
            ep.pingSent = {};
            return true;
        case FrameType::ServeCell: {
            if (die.armed && die.endpoint == i && die.afterCells-- == 0) {
                die.armed = false;
                ::kill(ep.pid, die.signal);
                if (die.signal == SIGKILL) {
                    onDeath(ep);
                    return false;
                }
                // Stopped, not dead: the dropped cell stays
                // outstanding, so only the Ping timeout can free it.
                return true;
            }
            // placeCell also checks the payload describes the cell it
            // claims to be — an endpoint answering the wrong cell
            // would silently skew the merge otherwise.
            std::uint64_t cell = 0;
            if (!placeCell(frame.payload, sweep, cell))
                return false;
            ep.outstanding.erase(cell);
            if (received[cell]) {
                // Count a cell once whatever the endpoints send. Only
                // never-merged cells are reassigned, and determinism
                // makes any second copy bit-identical anyway.
                ++stats.duplicateCells;
            } else {
                received[cell] = true;
                ++receivedCount;
            }
            return true;
        }
        case FrameType::ServeDone: {
            DoneMsg done;
            if (!decodeDone(frame.payload, done))
                return false;
            if (!done.ok)
                fatal("sharded sweep: endpoint ", i,
                      " rejected its shard (",
                      doneStatusName(static_cast<DoneStatus>(
                          done.status)),
                      "): ", done.error);
            if (!ep.outstanding.empty())
                return false; // done without delivering every cell
            ep.busy = false;
            return true;
        }
        default:
            return false; // client-bound streams carry nothing else
        }
    };

    while (receivedCount < n_cells) {
        bool anyAlive = false;
        for (auto &ep : endpoints) {
            dispatch(ep);
            anyAlive = anyAlive || ep.alive;
        }
        if (!anyAlive)
            fatal("sharded sweep: every endpoint died with ",
                  n_cells - receivedCount, " of ", n_cells,
                  " cells outstanding");

        std::vector<pollfd> fds;
        std::vector<std::size_t> fdEndpoint;
        for (std::size_t i = 0; i < endpoints.size(); ++i) {
            if (!endpoints[i].alive)
                continue;
            fds.push_back({endpoints[i].fd, POLLIN, 0});
            fdEndpoint.push_back(i);
        }
        const int rv =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kTickMs);
        if (rv < 0 && errno != EINTR)
            fatal("sharded sweep: poll() failed: ",
                  std::strerror(errno));

        for (std::size_t k = 0; k < fds.size(); ++k) {
            const std::size_t i = fdEndpoint[k];
            Endpoint &ep = endpoints[i];
            if (!ep.alive ||
                !(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const PumpStatus st = shard::pumpFrames(
                ep.fd, ep.parser,
                [&](const Frame &frame) { return handleFrame(i, frame); });
            if (st == PumpStatus::Ok || !ep.alive)
                continue;
            if (st == PumpStatus::Corrupt || st == PumpStatus::Rejected)
                warn("sharded sweep: endpoint ", i,
                     " sent a malformed stream; reassigning its cells");
            onDeath(ep);
        }

        // Liveness: a busy endpoint silent for a tick gets a Ping; one
        // that leaves it unanswered for timeoutMs is hung.
        if (options.timeoutMs <= 0)
            continue;
        const Clock::time_point now = Clock::now();
        for (std::size_t i = 0; i < endpoints.size(); ++i) {
            Endpoint &ep = endpoints[i];
            if (!ep.alive || !ep.busy)
                continue;
            if (ep.pingSent == Clock::time_point{}) {
                if (now - ep.lastHeard < std::chrono::milliseconds(kTickMs))
                    continue;
                if (!shard::writeFrameToFd(ep.fd, FrameType::Ping, {}))
                    onDeath(ep);
                else
                    ep.pingSent = now;
            } else if (now - ep.pingSent >
                       std::chrono::milliseconds(options.timeoutMs)) {
                warn("sharded sweep: endpoint ", i,
                     " left a Ping unanswered for ", options.timeoutMs,
                     " ms; killing and reassigning");
                onDeath(ep);
            }
        }
    }

    // Closing our end is the endpoints' exit signal: each drains and
    // exits on EOF. Close all first so they wind down in parallel,
    // then reap, giving each a moment so the common path collects a
    // clean exit status rather than a SIGKILL.
    for (auto &ep : endpoints)
        if (ep.alive)
            ::close(ep.fd);
    for (auto &ep : endpoints)
        if (ep.alive)
            reap(ep.pid, 1000);

    if (stats_out)
        *stats_out = stats;
    return sweep;
}

int endpointMain(int argc, char **argv)
{
    ServerOptions so;
    for (int i = 1; i + 2 < argc; ++i)
        if (!std::strcmp(argv[i], kEndpointFlag)) {
            so.connectedFd = std::atoi(argv[i + 1]);
            so.jobs = std::atoi(argv[i + 2]);
        }
    Server server(so);
    std::string err = "missing connection descriptor";
    if (so.connectedFd < 0 || !server.start(&err)) {
        warn("sweep endpoint: ", err);
        return 2;
    }
    server.wait();
    return 0;
}

#else // !__unix__

sim::SweepResult runShardedSweep(const ShardedSweepOptions &,
                                 ShardedSweepStats *)
{
    fatal("the sharded sweep coordinator requires a POSIX host");
}

int endpointMain(int, char **)
{
    warn("sweep endpoints require a POSIX host");
    return 2;
}

#endif // __unix__

} // namespace serve
} // namespace tg
