/**
 * @file
 * Frame layer of every byte stream in the tree.
 *
 * The sweep server (serve/), its clients and the sharded-sweep
 * coordinator speak length-prefixed binary frames over sockets.
 * Every frame is
 *
 *     u32 magic "TGS1" | u32 type | u64 payload length |
 *     payload bytes    | u64 FNV-1a checksum over everything before
 *
 * little-endian throughout, built on the same codec primitives as
 * the artifact cache's disk tier (common/bytes.hh). The format makes
 * no shared-memory assumption — frames could travel to another host
 * unchanged. A frame that fails its checksum or header check marks
 * the stream corrupt rather than being half-trusted, mirroring the
 * disk tier's corruption rules. Payload codecs live with their
 * messages (serve/protocol.hh); this layer treats payloads as opaque
 * bytes.
 */

#ifndef TG_SHARD_PROTOCOL_HH
#define TG_SHARD_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hh"

namespace tg {
namespace shard {

/** Leading tag of every frame ("TGS1" little-endian). */
constexpr std::uint32_t kFrameMagic = 0x31534754;

/** Upper bound on a frame payload (a full RunResult is ~100 KB). */
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/**
 * Frame type registry. Ids are pinned: they are the wire format, so a
 * client built against an older tree keeps talking to a newer daemon.
 * Ids 1-6 belonged to a retired worker protocol; the parser rejects
 * them and they must never be reused.
 */
enum class FrameType : std::uint32_t
{
    Shutdown = 7,         //!< client -> server drain and exit
    ServeRun = 8,         //!< client -> server single-run request
    ServeSweep = 9,       //!< client -> server sweep request
    ServeCell = 10,       //!< server -> client one finished cell
    ServeDone = 11,       //!< server -> client request complete
    ServeStats = 12,      //!< client -> server stats request (empty)
    ServeStatsReply = 13, //!< server -> client counters snapshot
    Ping = 14,            //!< client -> server liveness probe
    Pong = 15,            //!< server -> client liveness echo
    ServeCancel = 16,     //!< client -> server cancel a request
};

/** True when `t` is one of the FrameType enumerators. */
bool frameTypeValid(std::uint32_t t);

/** One decoded frame. */
struct Frame
{
    FrameType type{};
    std::vector<std::uint8_t> payload;
};

/** Frame a payload: header + payload + trailing checksum. */
std::vector<std::uint8_t> encodeFrame(FrameType type,
                                      const std::vector<std::uint8_t> &payload);

/**
 * Incremental frame extractor over a byte stream. feed() appends
 * received bytes; next() pops complete frames. Any malformed header
 * (bad magic, unknown type, absurd length) or checksum mismatch
 * makes the parser sticky-corrupt: the stream cannot be resynced, so
 * the peer must be treated as dead.
 */
class FrameParser
{
  public:
    enum class Status
    {
        Frame,    //!< one frame extracted into `out`
        NeedMore, //!< no complete frame buffered yet
        Corrupt,  //!< stream is malformed (sticky)
    };

    void feed(const std::uint8_t *data, std::size_t size);
    Status next(Frame &out);

    bool corrupt() const { return corruptFlag; }

  private:
    std::vector<std::uint8_t> buf;
    std::size_t start = 0; //!< consumed prefix (compacted lazily)
    bool corruptFlag = false;
};

// --- connection plumbing ----------------------------------------------
//
// The read/feed/drain loop around a framed descriptor is identical
// for every peer in the tree (sweep server, serve client, sharded-
// sweep coordinator), so it lives here once. Writes go through
// io::writeAll so a frame is either fully sent or the peer is dead.

/** Blocking full-frame write; false when the peer is gone. */
bool writeFrameToFd(int fd, FrameType type,
                    const std::vector<std::uint8_t> &payload);

/** Outcome of one pumpFrames() round. */
enum class PumpStatus
{
    Ok,       //!< progress (or EAGAIN/EINTR); connection healthy
    Eof,      //!< peer closed the descriptor
    Corrupt,  //!< stream malformed (parser is sticky-corrupt)
    Rejected, //!< `handle` refused a frame (protocol violation)
    Error,    //!< read() failed
};

/**
 * One pump round: read() once from `fd`, feed `parser`, and hand
 * every completed frame to `handle`. Returns after the buffered
 * frames drain — with a level-triggered poll() loop, remaining bytes
 * re-trigger readability, so one read per round is enough; blocking
 * callers (the serve client) just call it in a loop. `handle`
 * returning false stops the drain and reports Rejected.
 */
PumpStatus pumpFrames(int fd, FrameParser &parser,
                      const std::function<bool(const Frame &)> &handle);

} // namespace shard
} // namespace tg

#endif // TG_SHARD_PROTOCOL_HH
