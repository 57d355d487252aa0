#include "serve/protocol.hh"

#include <cstdio>
#include <cstdlib>
#include <unistd.h>

#include "cache/serialize.hh"

namespace tg {
namespace serve {

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

sim::RecordOptions recordOptions(const SweepMsg &m)
{
    sim::RecordOptions opts;
    opts.timeSeries = m.timeSeries != 0;
    opts.heatmap = m.heatmap != 0;
    opts.noiseTrace = m.noiseTrace != 0;
    opts.trackVr = static_cast<int>(m.trackVr);
    opts.noiseSamplesOverride = static_cast<int>(m.noiseSamplesOverride);
    return opts;
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
    return fields::encode(m, kRunMsgFields);
}

bool decodeRun(const std::vector<std::uint8_t> &p, RunMsg &out)
{
    return fields::decode(p, out, kRunMsgFields);
}

std::vector<std::uint8_t> encodeSweep(const SweepMsg &m)
{
    return fields::encode(m, kSweepMsgFields);
}

bool decodeSweep(const std::vector<std::uint8_t> &p, SweepMsg &out)
{
    return fields::decode(p, out, kSweepMsgFields);
}

std::vector<std::uint8_t> encodeCell(const CellMsg &m)
{
    return fields::encode(m, kCellMsgFields);
}

bool decodeCell(const std::vector<std::uint8_t> &p, CellMsg &out)
{
    return fields::decode(p, out, kCellMsgFields);
}

std::vector<std::uint8_t> encodeDone(const DoneMsg &m)
{
    return fields::encode(m, kDoneMsgFields);
}

bool decodeDone(const std::vector<std::uint8_t> &p, DoneMsg &out)
{
    // An unknown status (a newer server?) or an ok/status mismatch is
    // a malformed reply, not something to half-trust.
    return fields::decode(p, out, kDoneMsgFields) &&
           doneStatusValid(out.status) &&
           (out.ok != 0) ==
               (out.status == static_cast<std::uint8_t>(DoneStatus::Ok));
}

std::vector<std::uint8_t> encodeStatsReply(const StatsReplyMsg &m)
{
    return fields::encode(m, kStatsReplyFields);
}

bool decodeStatsReply(const std::vector<std::uint8_t> &p,
                      StatsReplyMsg &out)
{
    return fields::decode(p, out, kStatsReplyFields);
}

std::string resolveSocketPath(const std::string &cliValue)
{
    if (!cliValue.empty())
        return cliValue;
    if (const char *env = std::getenv("TG_SERVE_SOCKET"))
        if (*env)
            return env;
    char buf[64];
    std::snprintf(buf, sizeof buf, "/tmp/tg_serve.%lu.sock",
                  static_cast<unsigned long>(::getuid()));
    return std::string(buf);
}

} // namespace serve
} // namespace tg
