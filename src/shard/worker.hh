/**
 * @file
 * The basic setup blob: how a sweep request names its simulation
 * context.
 *
 * Every Run/Sweep request (serve/protocol.hh) carries an opaque
 * `setup` blob from which the server, or a sharded-sweep endpoint,
 * rebuilds its Simulation. This codec covers the canned chips
 * (POWER8 evaluation chip, mini test chip) plus the top-level
 * SimConfig scalars, which is all the in-tree benches and tools use.
 * The blob is also the server's warm-context cache key.
 */

#ifndef TG_SHARD_WORKER_HH
#define TG_SHARD_WORKER_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace tg {
namespace shard {

/** Chip selector of the basic setup blob. */
enum class ChipKind : std::uint32_t
{
    Power8 = 0, //!< floorplan::buildPower8Chip()
    Mini = 1,   //!< floorplan::buildMiniChip(arg)
};

/**
 * Encode (chip, config) as a setup blob. Covers the top-level
 * SimConfig scalars (regulator choice, timing, sampling, batching,
 * seed, cache knobs); the nested parameter structs stay at their
 * defaults.
 */
std::vector<std::uint8_t> encodeBasicSetup(ChipKind kind, int chip_arg,
                                           const sim::SimConfig &cfg);

/**
 * Decode an encodeBasicSetup() blob. Returns false on a malformed
 * blob or unknown chip kind instead of dying, so a server turns a bad
 * request into an error reply rather than an abort.
 */
bool decodeBasicSetup(const std::vector<std::uint8_t> &blob,
                      ChipKind &kind, int &chip_arg,
                      sim::SimConfig &cfg);

} // namespace shard
} // namespace tg

#endif // TG_SHARD_WORKER_HH
