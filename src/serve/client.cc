#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unistd.h>

#include "common/bytes.hh"
#include "common/io.hh"

namespace tg {
namespace serve {

using shard::Frame;
using shard::FrameParser;
using shard::FrameType;
using shard::PumpStatus;

namespace {

void setErr(std::string *err, const char *what)
{
    if (err)
        *err = what;
}

} // namespace

Client::~Client()
{
    close();
}

void Client::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
    parser = FrameParser();
    pending.clear();
}

bool Client::connect(const std::string &socketPath, std::string *err)
{
    close();
    fd = io::connectUnix(socketPath);
    if (fd < 0) {
        if (err)
            *err = "cannot connect to " + socketPath;
        return false;
    }
    return true;
}

bool Client::connectWithRetry(const std::string &socketPath,
                              std::uint64_t waitMs, std::string *err)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point give_up =
        Clock::now() + std::chrono::milliseconds(waitMs);
    const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
    std::uint64_t delayMs = 10;
    for (std::uint64_t attempt = 0;; ++attempt) {
        // An accepted connection is not enough: the listening socket
        // may outlive a dying server, or the daemon may not be
        // serving yet. Only a Pong proves the loop is live.
        if (connect(socketPath, err) && ping(err))
            return true;
        close();
        if (Clock::now() >= give_up) {
            if (err)
                *err = "server at " + socketPath + " not ready after " +
                       std::to_string(waitMs) + " ms (" + *err + ")";
            return false;
        }
        // Deterministic per-process jitter (up to +25%) so a fleet
        // of clients retrying in lockstep spreads out.
        std::uint8_t jkey[16];
        for (int i = 0; i < 8; ++i) {
            jkey[i] = static_cast<std::uint8_t>(pid >> (8 * i));
            jkey[8 + i] = static_cast<std::uint8_t>(attempt >> (8 * i));
        }
        const std::uint64_t jitter =
            bytes::fnv1a(jkey, sizeof jkey) % (delayMs / 4 + 1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delayMs + jitter));
        delayMs = std::min<std::uint64_t>(delayMs * 2, 500);
    }
}

bool Client::send(FrameType type,
                  const std::vector<std::uint8_t> &payload,
                  std::string *err)
{
    if (fd < 0) {
        setErr(err, "not connected");
        return false;
    }
    if (!shard::writeFrameToFd(fd, type, payload)) {
        setErr(err, "server connection lost mid-send");
        return false;
    }
    return true;
}

bool Client::recv(Frame &out, std::string *err)
{
    if (fd < 0) {
        setErr(err, "not connected");
        return false;
    }
    while (pending.empty()) {
        // Blocking socket: pumpFrames parks in read() until data.
        switch (shard::pumpFrames(fd, parser,
                                  [&](const Frame &frame) {
                                      pending.push_back(frame);
                                      return true;
                                  })) {
        case PumpStatus::Ok:
            break;
        case PumpStatus::Eof:
            setErr(err, "server closed the connection");
            return false;
        case PumpStatus::Corrupt:
            setErr(err, "corrupt frame stream from server");
            return false;
        case PumpStatus::Rejected:
        case PumpStatus::Error:
            setErr(err, "read from server failed");
            return false;
        }
    }
    out = std::move(pending.front());
    pending.erase(pending.begin());
    return true;
}

bool Client::ping(std::string *err)
{
    if (!send(FrameType::Ping, {}, err))
        return false;
    Frame frame;
    if (!recv(frame, err))
        return false;
    if (frame.type != FrameType::Pong) {
        setErr(err, "unexpected reply to Ping");
        return false;
    }
    return true;
}

bool Client::stats(StatsReplyMsg &out, std::string *err)
{
    if (!send(FrameType::ServeStats, {}, err))
        return false;
    Frame frame;
    if (!recv(frame, err))
        return false;
    if (frame.type != FrameType::ServeStatsReply ||
        !decodeStatsReply(frame.payload, out)) {
        setErr(err, "malformed stats reply");
        return false;
    }
    return true;
}

bool Client::shutdownServer(std::string *err)
{
    if (!send(FrameType::Shutdown, {}, err))
        return false;
    Frame frame;
    if (!recv(frame, err))
        return false;
    DoneMsg done;
    if (frame.type != FrameType::ServeDone ||
        !decodeDone(frame.payload, done) || !done.ok) {
        setErr(err, "server refused the shutdown request");
        return false;
    }
    return true;
}

bool Client::cancel(std::string *err)
{
    return send(FrameType::ServeCancel, {}, err);
}

bool Client::run(const RunMsg &request, sim::RunResult &out,
                 std::string *err, DoneMsg *doneOut)
{
    // The server answers a run as its one-cell sweep, so the reply is
    // read, placed and checked exactly like a sweep's.
    if (!send(FrameType::ServeRun, encodeRun(request), err))
        return false;
    sim::SweepResult grid;
    if (!receiveGrid(asSweep(request), "run", grid, err, doneOut))
        return false;
    out = std::move(grid.results[0][0]);
    return true;
}

bool Client::sweep(const SweepMsg &request, sim::SweepResult &out,
                   std::string *err, DoneMsg *doneOut)
{
    if (!send(FrameType::ServeSweep, encodeSweep(request), err))
        return false;
    return receiveGrid(request, "sweep", out, err, doneOut);
}

bool Client::receiveGrid(const SweepMsg &request, const char *what,
                         sim::SweepResult &out, std::string *err,
                         DoneMsg *doneOut)
{
    out = emptyGrid(request);
    const std::uint64_t requested =
        request.cells.empty()
            ? static_cast<std::uint64_t>(request.benchmarks.size()) *
                  request.policies.size()
            : request.cells.size();
    std::uint64_t placed = 0;
    for (;;) {
        Frame frame;
        if (!recv(frame, err))
            return false;
        if (frame.type == FrameType::ServeCell) {
            std::uint64_t cell = 0;
            if (!placeCell(frame.payload, out, cell)) {
                setErr(err, "malformed cell result");
                return false;
            }
            ++placed;
            continue;
        }
        if (frame.type == FrameType::ServeDone) {
            DoneMsg done;
            if (!decodeDone(frame.payload, done)) {
                setErr(err, "malformed completion frame");
                return false;
            }
            if (doneOut)
                *doneOut = done;
            if (!done.ok) {
                if (err)
                    *err = std::string(what) + " " +
                           doneStatusName(static_cast<DoneStatus>(
                               done.status)) +
                           ": " + done.error;
                return false;
            }
            // Ok promises every requested cell, each streamed once.
            if (placed != done.cells || placed != requested) {
                setErr(err, "completion does not match the cells received");
                return false;
            }
            return true;
        }
        if (err)
            *err = std::string("unexpected frame during ") + what;
        return false;
    }
}

} // namespace serve
} // namespace tg
