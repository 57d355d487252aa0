/**
 * @file
 * Low-level POSIX descriptor helpers shared by every socket-speaking
 * layer (the sweep server and its client).
 *
 * Everything here is a thin, EINTR-hardened wrapper: policy (framing,
 * corruption handling, event-loop structure) stays with the callers.
 *
 * Chaos harness: every read/write in the service stack routes through
 * chaosRead()/chaosWrite(), a deterministic fault shim that injects
 * short transfers, EINTR, ECONNRESET and ENOSPC according to the
 * TG_IO_FAULTS spec (or a programmatic ChaosConfig). Decisions are a
 * pure function of (seed, per-process operation index), so a failing
 * sequence replays exactly; when no spec is configured the shim is a
 * single relaxed atomic load on top of the raw syscall.
 */

#ifndef TG_COMMON_IO_HH
#define TG_COMMON_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/fields.hh"

namespace tg {
namespace io {

/**
 * Write the whole buffer, looping over partial writes and EINTR.
 * Returns false when the peer is gone (EPIPE/ECONNRESET/...); callers
 * treat that as a dead connection, never as a partial frame.
 */
bool writeAll(int fd, const std::uint8_t *data, std::size_t size);

/** Toggle O_NONBLOCK; returns false when fcntl fails. */
bool setNonBlocking(int fd, bool on);

/**
 * Create, bind and listen on a Unix-domain stream socket at `path`.
 * A stale socket file (left by a crashed server: nothing accepts
 * connections on it) is unlinked and the bind retried; a *live*
 * server on the path is an error. Returns the listening fd, or -1
 * with a human-readable reason in `err`.
 */
int listenUnix(const std::string &path, int backlog, std::string *err);

/**
 * Connect to a Unix-domain stream socket. Returns the connected fd or
 * -1 (no server, refused, path too long).
 */
int connectUnix(const std::string &path);

// --- deterministic I/O chaos ------------------------------------------
//
// TG_IO_FAULTS grammar (comma-separated key=value, no spaces):
//
//     seed=N           base of the per-operation decision hash
//     short-read=P     probability a read is truncated to <=16 bytes
//     short-write=P    probability a write transfers <=16 bytes
//     eintr=P          probability an op fails with EINTR (no data)
//     reset=P          probability an op fails with ECONNRESET
//     enospc=P         probability a disk-tier save fails with ENOSPC
//
// Probabilities are decimals in [0, 1]. Each chaos-wrapped operation
// consumes one index of a process-global counter; the decision for
// index i is fnv1a(seed, i) mapped to [0, 1) and compared against the
// cumulative rates — deterministic for a fixed seed and op sequence.
// Short transfers and EINTR are recoverable by the retry loops they
// exercise; reset kills the connection (drop-and-recover paths);
// enospc makes DiskTier::save fail (reject-and-recompute path).

/** Chaos fault rates; a default-constructed config is disabled. */
struct ChaosConfig
{
    bool enabled = false;
    std::uint64_t seed = 0;
    double shortRead = 0.0;
    double shortWrite = 0.0;
    double eintr = 0.0;
    double reset = 0.0;
    double enospc = 0.0;
};

/** Injection counters; the shim keeps one live instance
 *  (common/counters.hh), so snapshots are advisory. */
struct ChaosCounters
{
    std::uint64_t ops = 0;        //!< chaos-wrapped operations seen
    std::uint64_t shortReads = 0;
    std::uint64_t shortWrites = 0;
    std::uint64_t eintrs = 0;
    std::uint64_t resets = 0;
    std::uint64_t enospcs = 0;
};

/** ChaosCounters' members (common/fields.hh). */
inline constexpr auto kChaosFields = std::tuple{
    fields::field("ops", &ChaosCounters::ops),
    fields::field("short-reads", &ChaosCounters::shortReads),
    fields::field("short-writes", &ChaosCounters::shortWrites),
    fields::field("eintrs", &ChaosCounters::eintrs),
    fields::field("resets", &ChaosCounters::resets),
    fields::field("enospcs", &ChaosCounters::enospcs),
};
static_assert(fields::covers<ChaosCounters>(kChaosFields));

constexpr const auto &fieldsOf(const ChaosCounters &) { return kChaosFields; }

/**
 * Parse a TG_IO_FAULTS spec. False (with a reason in *err) on an
 * unknown key, a malformed number or a rate outside [0, 1]; `out` is
 * then untouched. The empty string parses as "disabled".
 */
bool chaosParse(const std::string &spec, ChaosConfig &out,
                std::string *err);

/**
 * Install a config programmatically (tests), replacing TG_IO_FAULTS.
 * Resets the operation counter so a fixed seed replays the same
 * decision sequence. Not safe against concurrent in-flight chaos I/O:
 * configure before the threads that perform it start (or after they
 * stop).
 */
void chaosConfigure(const ChaosConfig &cfg);

/** The active config (env-parsed on first use, else programmatic). */
ChaosConfig chaosConfig();

/** Whether any fault injection is active. */
bool chaosEnabled();

ChaosCounters chaosCounters();

/** Reset counters and the op index (deterministic test replays). */
void chaosResetCounters();

/**
 * read(2)/write(2) with fault injection. With chaos disabled these
 * are the raw syscalls; enabled, they may instead fail with EINTR or
 * ECONNRESET, or truncate the transfer (never to zero bytes, so
 * retry loops always make progress). Returns the transfer count or
 * -1 with errno set, exactly like the syscalls.
 */
long chaosRead(int fd, void *buf, std::size_t count);
long chaosWrite(int fd, const void *buf, std::size_t count);

/**
 * Disk-tier write gate: false simulates ENOSPC (errno is set). The
 * cache's save path checks this once per artifact and converts a
 * false into its ordinary "write failed" fallback.
 */
bool chaosDiskWriteAllowed();

} // namespace io
} // namespace tg

#endif // TG_COMMON_IO_HH
