/**
 * @file
 * Bit-exact binary serialization of cacheable artifacts.
 *
 * The disk tier must round-trip a RunResult without perturbing a
 * single bit (a reloaded artifact stands in for a recompute), so
 * doubles travel as their raw 64-bit patterns — never through text
 * formatting. The encoding is little-endian, versioned via the
 * per-artifact magic tags, and host-independent for the fixed-width
 * types used.
 *
 * The codec primitives (bytes::ByteWriter/ByteReader) live in
 * common/bytes.hh, shared with the TGS1 frame protocol.
 */

#ifndef TG_CACHE_SERIALIZE_HH
#define TG_CACHE_SERIALIZE_HH

#include <cstdint>
#include <vector>

#include "common/bytes.hh"

namespace tg {

namespace sim {
struct RunResult;
}

namespace cache {

/** Serialize a RunResult (every field, series included). */
std::vector<std::uint8_t> encodeRunResult(const sim::RunResult &r);

/**
 * Decode into `out`. Returns false (leaving `out` unspecified) on
 * malformed, truncated, or over-long input.
 */
bool decodeRunResult(const std::uint8_t *data, std::size_t size,
                     sim::RunResult &out);

/** Resident-size estimate of a RunResult for store budgeting. */
std::size_t runResultBytes(const sim::RunResult &r);

} // namespace cache
} // namespace tg

#endif // TG_CACHE_SERIALIZE_HH
