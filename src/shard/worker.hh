/**
 * @file
 * The basic setup blob: how a sweep request names its simulation
 * context.
 *
 * Every Run/Sweep request (serve/protocol.hh) carries an opaque
 * `setup` blob from which the server rebuilds its Simulation. This
 * codec covers the canned chips
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

/** Cap on a setup's noiseSamples and a request's override: the
 *  noiseSamples range of sim::kSimConfigFields. */
constexpr int kMaxNoiseSamples = std::get<2>(sim::kSimConfigFields).hi;
static_assert(std::get<2>(sim::kSimConfigFields).member ==
              &sim::SimConfig::noiseSamples);

/**
 * Encode (chip, config) as a setup blob: the chip header, then the
 * Wire members of sim::kSimConfigFields (the top-level scalars); the
 * nested parameter structs stay at their defaults.
 */
std::vector<std::uint8_t> encodeBasicSetup(ChipKind kind, int chip_arg,
                                           const sim::SimConfig &cfg);

/**
 * Decode an encodeBasicSetup() blob. Returns false instead of dying
 * on a malformed blob, on values the Simulation would assert on and
 * on work sizes past 10x the paper's method, so a server turns a bad
 * request into an error reply rather than an abort or a stall.
 * Refused: an unknown chip kind, a mini chip outside 1..64 cores, a
 * member outside its kSimConfigFields range (an integer outside int
 * range included), and a warm-up not shorter than noiseCyclesTotal.
 */
bool decodeBasicSetup(const std::vector<std::uint8_t> &blob,
                      ChipKind &kind, int &chip_arg,
                      sim::SimConfig &cfg);

} // namespace shard
} // namespace tg

#endif // TG_SHARD_WORKER_HH
