#include "serve/protocol.hh"

#include <cstdio>
#include <cstdlib>

#include "cache/serialize.hh"

#ifdef __unix__
#include <unistd.h>
#endif

namespace tg {
namespace serve {

namespace {

using bytes::ByteReader;
using bytes::ByteWriter;

/** Cap on list element counts inside serve messages. */
constexpr std::uint64_t kMaxListLen = 1ull << 24;

void writeOpts(ByteWriter &w, std::uint8_t timeSeries,
               std::uint8_t heatmap, std::uint8_t noiseTrace,
               std::int64_t trackVr, std::int64_t noiseSamplesOverride)
{
    w.u8(timeSeries);
    w.u8(heatmap);
    w.u8(noiseTrace);
    w.i64(trackVr);
    w.i64(noiseSamplesOverride);
}

} // namespace

bool doneStatusValid(std::uint8_t s)
{
    return s <= static_cast<std::uint8_t>(DoneStatus::DeadlineExpired);
}

const char *doneStatusName(DoneStatus s)
{
    switch (s) {
    case DoneStatus::Ok:
        return "ok";
    case DoneStatus::Error:
        return "error";
    case DoneStatus::Busy:
        return "busy";
    case DoneStatus::Cancelled:
        return "cancelled";
    case DoneStatus::DeadlineExpired:
        return "deadline-expired";
    }
    return "unknown";
}

SweepMsg asSweep(const RunMsg &m)
{
    SweepMsg s;
    s.setup = m.setup;
    s.benchmarks = {m.benchmark};
    s.policies = {m.policy};
    s.jobs = 1;
    s.timeSeries = m.timeSeries;
    s.heatmap = m.heatmap;
    s.noiseTrace = m.noiseTrace;
    s.trackVr = m.trackVr;
    s.noiseSamplesOverride = m.noiseSamplesOverride;
    s.deadlineMs = m.deadlineMs;
    return s;
}

sim::SweepResult emptyGrid(const SweepMsg &m)
{
    sim::SweepResult grid;
    grid.benchmarks = m.benchmarks;
    for (auto pk : m.policies)
        grid.policies.push_back(static_cast<core::PolicyKind>(pk));
    grid.results.assign(
        m.benchmarks.size(),
        std::vector<sim::RunResult>(m.policies.size()));
    return grid;
}

bool placeCell(const std::vector<std::uint8_t> &payload,
               sim::SweepResult &grid, std::uint64_t &cell)
{
    const std::uint64_t n_cells =
        static_cast<std::uint64_t>(grid.benchmarks.size()) *
        grid.policies.size();
    CellMsg m;
    sim::RunResult r;
    if (!decodeCell(payload, m) || m.cell >= n_cells ||
        !cache::decodeRunResult(m.result.data(), m.result.size(), r))
        return false;
    const std::size_t b =
        static_cast<std::size_t>(m.cell / grid.policies.size());
    const std::size_t p =
        static_cast<std::size_t>(m.cell % grid.policies.size());
    if (r.benchmark != grid.benchmarks[b] ||
        r.policy != grid.policies[p])
        return false;
    grid.results[b][p] = std::move(r);
    cell = m.cell;
    return true;
}

std::vector<std::uint8_t> encodeRun(const RunMsg &m)
{
    ByteWriter w;
    w.blob(m.setup);
    w.str(m.benchmark);
    w.u32(m.policy);
    writeOpts(w, m.timeSeries, m.heatmap, m.noiseTrace, m.trackVr,
              m.noiseSamplesOverride);
    w.u64(m.deadlineMs);
    return w.take();
}

bool decodeRun(const std::vector<std::uint8_t> &p, RunMsg &out)
{
    ByteReader r(p.data(), p.size());
    if (!r.blob(out.setup))
        return false;
    out.benchmark = r.str();
    out.policy = r.u32();
    out.timeSeries = r.u8();
    out.heatmap = r.u8();
    out.noiseTrace = r.u8();
    out.trackVr = r.i64();
    out.noiseSamplesOverride = r.i64();
    out.deadlineMs = r.u64();
    return r.exhausted();
}

std::vector<std::uint8_t> encodeSweep(const SweepMsg &m)
{
    ByteWriter w;
    w.blob(m.setup);
    w.u64(m.benchmarks.size());
    for (const auto &b : m.benchmarks)
        w.str(b);
    w.u64(m.policies.size());
    for (auto pk : m.policies)
        w.u32(pk);
    w.u64(m.cells.size());
    for (auto c : m.cells)
        w.u64(c);
    w.u32(m.jobs);
    writeOpts(w, m.timeSeries, m.heatmap, m.noiseTrace, m.trackVr,
              m.noiseSamplesOverride);
    w.u64(m.deadlineMs);
    return w.take();
}

bool decodeSweep(const std::vector<std::uint8_t> &p, SweepMsg &out)
{
    ByteReader r(p.data(), p.size());
    if (!r.blob(out.setup))
        return false;
    const std::uint64_t nb = r.u64();
    if (!r.ok() || nb > kMaxListLen)
        return false;
    out.benchmarks.resize(static_cast<std::size_t>(nb));
    for (auto &b : out.benchmarks)
        b = r.str();
    const std::uint64_t np = r.u64();
    if (!r.ok() || np > kMaxListLen)
        return false;
    out.policies.resize(static_cast<std::size_t>(np));
    for (auto &pk : out.policies)
        pk = r.u32();
    const std::uint64_t nc = r.u64();
    if (!r.ok() || nc > kMaxListLen)
        return false;
    out.cells.resize(static_cast<std::size_t>(nc));
    for (auto &c : out.cells)
        c = r.u64();
    out.jobs = r.u32();
    out.timeSeries = r.u8();
    out.heatmap = r.u8();
    out.noiseTrace = r.u8();
    out.trackVr = r.i64();
    out.noiseSamplesOverride = r.i64();
    out.deadlineMs = r.u64();
    return r.exhausted();
}

std::vector<std::uint8_t> encodeCell(const CellMsg &m)
{
    ByteWriter w;
    w.u64(m.cell);
    w.blob(m.result);
    return w.take();
}

bool decodeCell(const std::vector<std::uint8_t> &p, CellMsg &out)
{
    ByteReader r(p.data(), p.size());
    out.cell = r.u64();
    if (!r.blob(out.result))
        return false;
    return r.exhausted();
}

std::vector<std::uint8_t> encodeDone(const DoneMsg &m)
{
    ByteWriter w;
    w.u8(m.ok);
    w.u8(m.status);
    w.u64(m.cells);
    w.str(m.error);
    w.u64(m.retryAfterMs);
    return w.take();
}

bool decodeDone(const std::vector<std::uint8_t> &p, DoneMsg &out)
{
    ByteReader r(p.data(), p.size());
    out.ok = r.u8();
    out.status = r.u8();
    out.cells = r.u64();
    out.error = r.str();
    out.retryAfterMs = r.u64();
    if (!r.exhausted())
        return false;
    // An unknown status (a newer server?) or an ok/status mismatch is
    // a malformed reply, not something to half-trust.
    if (!doneStatusValid(out.status))
        return false;
    const bool statusOk =
        out.status == static_cast<std::uint8_t>(DoneStatus::Ok);
    return (out.ok != 0) == statusOk;
}

std::vector<std::uint8_t> encodeStatsReply(const StatsReplyMsg &m)
{
    ByteWriter w;
    w.u64(m.uptimeMicros);
    w.u64(m.requestsRun);
    w.u64(m.requestsSweep);
    w.u64(m.requestsPing);
    w.u64(m.requestsStats);
    w.u64(m.requestsRejected);
    w.u64(m.cellsServed);
    w.u64(m.contextsBuilt);
    w.u64(m.contextsReused);
    w.u64(m.queueDepth);
    w.u64(m.runMicros);
    w.u64(m.sweepMicros);
    w.u64(m.requestsBusy);
    w.u64(m.requestsCancelled);
    w.u64(m.requestsDeadline);
    w.u64(m.activeRequests);
    // ArtifactStore snapshot: kind count first so a reader can reject
    // a build with a different kind set instead of misparsing it.
    w.u64(cache::kArtifactKinds);
    for (const auto &k : m.store.kind) {
        w.u64(k.hits);
        w.u64(k.misses);
        w.u64(k.inserts);
        w.u64(k.bytes);
        w.u64(k.evictions);
    }
    w.u64(m.store.evictions);
    w.u64(m.store.diskHits);
    w.u64(m.store.diskMisses);
    w.u64(m.store.diskWrites);
    w.u64(m.store.diskRejects);
    w.u64(m.store.diskTmpSwept);
    return w.take();
}

bool decodeStatsReply(const std::vector<std::uint8_t> &p,
                      StatsReplyMsg &out)
{
    ByteReader r(p.data(), p.size());
    out.uptimeMicros = r.u64();
    out.requestsRun = r.u64();
    out.requestsSweep = r.u64();
    out.requestsPing = r.u64();
    out.requestsStats = r.u64();
    out.requestsRejected = r.u64();
    out.cellsServed = r.u64();
    out.contextsBuilt = r.u64();
    out.contextsReused = r.u64();
    out.queueDepth = r.u64();
    out.runMicros = r.u64();
    out.sweepMicros = r.u64();
    out.requestsBusy = r.u64();
    out.requestsCancelled = r.u64();
    out.requestsDeadline = r.u64();
    out.activeRequests = r.u64();
    if (r.u64() != cache::kArtifactKinds || !r.ok())
        return false;
    for (auto &k : out.store.kind) {
        k.hits = r.u64();
        k.misses = r.u64();
        k.inserts = r.u64();
        k.bytes = r.u64();
        k.evictions = r.u64();
    }
    out.store.evictions = r.u64();
    out.store.diskHits = r.u64();
    out.store.diskMisses = r.u64();
    out.store.diskWrites = r.u64();
    out.store.diskRejects = r.u64();
    out.store.diskTmpSwept = r.u64();
    return r.exhausted();
}

std::string resolveSocketPath(const std::string &cliValue)
{
    if (!cliValue.empty())
        return cliValue;
    if (const char *env = std::getenv("TG_SERVE_SOCKET"))
        if (*env)
            return env;
    char buf[64];
#ifdef __unix__
    std::snprintf(buf, sizeof buf, "/tmp/tg_serve.%lu.sock",
                  static_cast<unsigned long>(::getuid()));
#else
    std::snprintf(buf, sizeof buf, "/tmp/tg_serve.sock");
#endif
    return std::string(buf);
}

} // namespace serve
} // namespace tg
