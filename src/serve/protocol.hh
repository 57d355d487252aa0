/**
 * @file
 * Payload codecs of the persistent sweep server.
 *
 * The server speaks the shard layer's TGS1 frame protocol over a
 * Unix-domain socket (shard/protocol.hh owns the frame layer and the
 * FrameType registry; this header owns the serve-side payloads). A
 * session is request/response:
 *
 *     client -> server : ServeRun | ServeSweep | ServeStats | Ping
 *                        | ServeCancel | Shutdown
 *     server -> client : ServeCell*  (streamed as cells finish)
 *     server -> client : ServeDone   (status + optional error string)
 *     server -> client : ServeStatsReply / Pong
 *
 * Robustness semantics: Run/Sweep carry an optional deadlineMs
 * the server enforces mid-execution; ServeCancel (empty payload)
 * aborts the connection's queued or in-flight request; ServeDone
 * reports a DoneStatus so a client can tell apart success, request
 * errors, admission-control rejection (Busy, with a retry hint) and
 * cancellation/deadline abort.
 *
 * Every decoder is bounds-checked and rejects trailing garbage.
 * Results travel as cache::encodeRunResult bytes, so a served cell is
 * byte-comparable against a locally computed one — the bit-identity
 * contract the serve tests assert.
 */

#ifndef TG_SERVE_PROTOCOL_HH
#define TG_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "common/fields.hh"
#include "shard/protocol.hh"
#include "sim/sweep.hh"

namespace tg {
namespace serve {

/**
 * Client -> server: one simulation run. `setup` is a
 * shard::encodeBasicSetup blob (chip kind + SimConfig scalars); the
 * RecordOptions scalars ride explicitly.
 */
struct RunMsg
{
    std::vector<std::uint8_t> setup;
    std::string benchmark;
    std::uint32_t policy = 0;
    // RecordOptions scalars (see sim/result.hh).
    std::uint8_t timeSeries = 0;
    std::uint8_t heatmap = 0;
    std::uint8_t noiseTrace = 0;
    std::int64_t trackVr = -1;
    std::int64_t noiseSamplesOverride = -1;
    /** Wall-clock budget in ms; 0 = none. The server arms it when the
     *  request is accepted (queue wait counts against it) and aborts
     *  the execution mid-sweep once it passes. */
    std::uint64_t deadlineMs = 0;
};

/** RunMsg's members in wire order (common/fields.hh). */
inline constexpr auto kRunMsgFields = std::tuple{
    fields::field("setup", &RunMsg::setup),
    fields::field("benchmark", &RunMsg::benchmark),
    fields::field("policy", &RunMsg::policy),
    fields::field("timeSeries", &RunMsg::timeSeries),
    fields::field("heatmap", &RunMsg::heatmap),
    fields::field("noiseTrace", &RunMsg::noiseTrace),
    fields::field("trackVr", &RunMsg::trackVr),
    fields::field("noiseSamplesOverride", &RunMsg::noiseSamplesOverride),
    fields::field("deadlineMs", &RunMsg::deadlineMs),
};
static_assert(fields::covers<RunMsg>(kRunMsgFields));

/**
 * Client -> server: a benchmark x policy sweep (the full grid, or an
 * arbitrary cell subset in the canonical `b * policies.size() + p`
 * indexing). `jobs` 1 runs the request inline on one server thread;
 * any other value fans it out ServerOptions::jobs wide. Results
 * are bit-identical at any jobs value, so the choice cannot change a
 * byte.
 */
struct SweepMsg
{
    std::vector<std::uint8_t> setup;
    std::vector<std::string> benchmarks;
    std::vector<std::uint32_t> policies;
    std::vector<std::uint64_t> cells; //!< empty = every grid cell
    std::uint32_t jobs = 1;
    std::uint8_t timeSeries = 0;
    std::uint8_t heatmap = 0;
    std::uint8_t noiseTrace = 0;
    std::int64_t trackVr = -1;
    std::int64_t noiseSamplesOverride = -1;
    std::uint64_t deadlineMs = 0; //!< see RunMsg::deadlineMs
};

/** Cap on the element count of a sweep's lists. */
inline constexpr std::uint64_t kMaxListLen = 1ull << 24;

/** SweepMsg's members in wire order (common/fields.hh). */
inline constexpr auto kSweepMsgFields = std::tuple{
    fields::field("setup", &SweepMsg::setup),
    fields::field("benchmarks", &SweepMsg::benchmarks, 0, kMaxListLen),
    fields::field("policies", &SweepMsg::policies, 0, kMaxListLen),
    fields::field("cells", &SweepMsg::cells, 0, kMaxListLen),
    fields::field("jobs", &SweepMsg::jobs),
    fields::field("timeSeries", &SweepMsg::timeSeries),
    fields::field("heatmap", &SweepMsg::heatmap),
    fields::field("noiseTrace", &SweepMsg::noiseTrace),
    fields::field("trackVr", &SweepMsg::trackVr),
    fields::field("noiseSamplesOverride", &SweepMsg::noiseSamplesOverride),
    fields::field("deadlineMs", &SweepMsg::deadlineMs),
};
static_assert(fields::covers<SweepMsg>(kSweepMsgFields));

/** Server -> client: one finished cell (cache::encodeRunResult). */
struct CellMsg
{
    std::uint64_t cell = 0;
    std::vector<std::uint8_t> result;
};

inline constexpr auto kCellMsgFields = std::tuple{
    fields::field("cell", &CellMsg::cell),
    fields::field("result", &CellMsg::result),
};
static_assert(fields::covers<CellMsg>(kCellMsgFields));

/** How a request ended (DoneMsg::status). */
enum class DoneStatus : std::uint8_t
{
    Ok = 0,        //!< executed; every requested cell streamed
    Error,         //!< invalid request or execution failure
    Busy,          //!< rejected at admission (queue full); retry later
    Cancelled,     //!< aborted by ServeCancel or client disconnect
    DeadlineExpired, //!< aborted because deadlineMs elapsed
};

/** True when `s` names a DoneStatus enumerator. */
bool doneStatusValid(std::uint8_t s);

/** Human-readable status tag ("ok", "busy", ...). */
const char *doneStatusName(DoneStatus s);

/** Server -> client: request complete (after the last CellMsg). */
struct DoneMsg
{
    std::uint8_t ok = 0; //!< 1 iff status == Ok (kept for callers
                         //!< that only care about success)
    std::uint8_t status =
        static_cast<std::uint8_t>(DoneStatus::Error);
    std::uint64_t cells = 0; //!< cells streamed for this request
    std::string error;       //!< empty when ok
    /** With status == Busy: the server's suggested retry delay. */
    std::uint64_t retryAfterMs = 0;
};

inline constexpr auto kDoneMsgFields = std::tuple{
    fields::field("ok", &DoneMsg::ok),
    fields::field("status", &DoneMsg::status),
    fields::field("cells", &DoneMsg::cells),
    fields::field("error", &DoneMsg::error),
    fields::field("retryAfterMs", &DoneMsg::retryAfterMs),
};
static_assert(fields::covers<DoneMsg>(kDoneMsgFields));

/**
 * Server -> client: counters snapshot. Request-side counters come
 * from the scheduler, which keeps one instance as its live record
 * (common/counters.hh); the embedded cache::StoreStats is the shared
 * warm ArtifactStore the daemon exists to keep alive.
 */
struct StatsReplyMsg
{
    std::uint64_t uptimeMicros = 0;
    std::uint64_t requestsRun = 0;
    std::uint64_t requestsSweep = 0;
    std::uint64_t requestsPing = 0;
    std::uint64_t requestsStats = 0;
    std::uint64_t requestsRejected = 0; //!< malformed/invalid requests
    std::uint64_t cellsServed = 0;
    std::uint64_t contextsBuilt = 0;  //!< warm-context cache misses
    std::uint64_t contextsReused = 0; //!< warm-context cache hits
    std::uint64_t queueDepth = 0;     //!< requests waiting at snapshot
    std::uint64_t runMicros = 0;   //!< cumulative Run execution time
    std::uint64_t sweepMicros = 0; //!< cumulative Sweep execution time
    std::uint64_t requestsBusy = 0;      //!< admission rejections
    std::uint64_t requestsCancelled = 0; //!< cancel/disconnect aborts
    std::uint64_t requestsDeadline = 0;  //!< deadline-expiry aborts
    std::uint64_t activeRequests = 0;    //!< executing at snapshot
    cache::StoreStats store;
};

/** StatsReplyMsg's members in wire order (common/fields.hh): the
 *  request-side counters, then the store snapshot through
 *  cache::kStoreFields. */
inline constexpr auto kStatsReplyFields = std::tuple{
    fields::field("uptime-us", &StatsReplyMsg::uptimeMicros),
    fields::field("requests-run", &StatsReplyMsg::requestsRun),
    fields::field("requests-sweep", &StatsReplyMsg::requestsSweep),
    fields::field("requests-ping", &StatsReplyMsg::requestsPing),
    fields::field("requests-stats", &StatsReplyMsg::requestsStats),
    fields::field("requests-rejected", &StatsReplyMsg::requestsRejected),
    fields::field("cells-served", &StatsReplyMsg::cellsServed),
    fields::field("contexts-built", &StatsReplyMsg::contextsBuilt),
    fields::field("contexts-reused", &StatsReplyMsg::contextsReused),
    fields::field<fields::Wire | fields::Level>("queue-depth",
                                                &StatsReplyMsg::queueDepth),
    fields::field("run-us", &StatsReplyMsg::runMicros),
    fields::field("sweep-us", &StatsReplyMsg::sweepMicros),
    fields::field("requests-busy", &StatsReplyMsg::requestsBusy),
    fields::field("requests-cancelled", &StatsReplyMsg::requestsCancelled),
    fields::field("requests-deadline", &StatsReplyMsg::requestsDeadline),
    fields::field<fields::Wire | fields::Level>(
        "active-requests", &StatsReplyMsg::activeRequests),
    fields::field("store", &StatsReplyMsg::store),
};
static_assert(fields::covers<StatsReplyMsg>(kStatsReplyFields));

constexpr const auto &fieldsOf(const StatsReplyMsg &)
{
    return kStatsReplyFields;
}

/**
 * The sweep a run request is: `m`'s benchmark under `m`'s policy as a
 * one-cell grid at jobs 1, with the same setup, record options and
 * deadline. The server executes a ServeRun as this sweep, and
 * Client::run reads the reply into emptyGrid(asSweep(m)).
 */
SweepMsg asSweep(const RunMsg &m);

/** The RecordOptions a sweep request's five record-option scalars
 *  ask for (the fault scenario and the cancel token never travel). */
sim::RecordOptions recordOptions(const SweepMsg &m);

/** The empty result grid of a sweep request: `m`'s benchmark/policy
 *  labels, every slot default-constructed. placeCell() fills it. */
sim::SweepResult emptyGrid(const SweepMsg &m);

/**
 * Merge one ServeCell payload into its canonical slot
 * `b * policies.size() + p` of `grid` (shaped by emptyGrid()) — the
 * one merge rule of every sweep client. Fails, leaving `grid`
 * untouched, on a malformed payload, a cell index outside the grid,
 * or a RunResult whose benchmark/policy differ from the slot's: a
 * mislabelled reply must never land in the wrong slot. On success
 * `cell` receives the slot's index.
 */
bool placeCell(const std::vector<std::uint8_t> &payload,
               sim::SweepResult &grid, std::uint64_t &cell);

std::vector<std::uint8_t> encodeRun(const RunMsg &m);
std::vector<std::uint8_t> encodeSweep(const SweepMsg &m);
std::vector<std::uint8_t> encodeCell(const CellMsg &m);
std::vector<std::uint8_t> encodeDone(const DoneMsg &m);
std::vector<std::uint8_t> encodeStatsReply(const StatsReplyMsg &m);

/** Decoders reject truncated, malformed and trailing-garbage input. */
bool decodeRun(const std::vector<std::uint8_t> &p, RunMsg &out);
bool decodeSweep(const std::vector<std::uint8_t> &p, SweepMsg &out);
bool decodeCell(const std::vector<std::uint8_t> &p, CellMsg &out);
bool decodeDone(const std::vector<std::uint8_t> &p, DoneMsg &out);
bool decodeStatsReply(const std::vector<std::uint8_t> &p,
                      StatsReplyMsg &out);

/**
 * Socket-path ladder shared by tg_serve and tg_client: a non-empty
 * `cliValue` wins, else $TG_SERVE_SOCKET, else a per-user default
 * (/tmp/tg_serve.<uid>.sock).
 */
std::string resolveSocketPath(const std::string &cliValue);

} // namespace serve
} // namespace tg

#endif // TG_SERVE_PROTOCOL_HH
