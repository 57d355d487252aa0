/**
 * @file
 * Deterministic cell -> shard partitioning of a sweep grid.
 *
 * Shards are the dispatch unit of the multi-process sweep: the
 * coordinator hands one shard at a time to whichever worker is idle,
 * so *which worker* runs a shard is scheduling-dependent — but the
 * partition itself is a pure function of (cell count, worker count),
 * and every cell's result lands in its grid slot regardless, so the
 * merged sweep is bit-identical under any dispatch order.
 *
 * Sizing follows guided self-scheduling: the first shards take
 * ceil(remaining / (2 * workers)) cells and the tail decays to
 * single cells, so early shards amortise per-assignment overhead
 * while late ones keep fast workers from starving behind a straggler
 * holding one big final shard.
 */

#ifndef TG_SHARD_PARTITION_HH
#define TG_SHARD_PARTITION_HH

#include <cstdint>
#include <vector>

namespace tg {
namespace shard {

/**
 * Split cells [0, n_cells) into dispatch shards for `workers`
 * workers. Every cell appears in exactly one shard, shards are
 * contiguous, in cell order, with non-increasing sizes.
 *
 * @param n_cells grid size (0 yields no shards)
 * @param workers worker count (clamped to >= 1)
 */
std::vector<std::vector<std::uint64_t>>
partitionCells(std::size_t n_cells, int workers);

} // namespace shard
} // namespace tg

#endif // TG_SHARD_PARTITION_HH
