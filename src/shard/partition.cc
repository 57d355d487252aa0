#include "shard/partition.hh"

#include <algorithm>

namespace tg {
namespace shard {

std::vector<std::vector<std::uint64_t>>
partitionCells(std::size_t n_cells, int workers)
{
    const std::size_t w =
        static_cast<std::size_t>(std::max(1, workers));

    std::vector<std::vector<std::uint64_t>> shards;
    std::size_t next = 0;
    while (next < n_cells) {
        const std::size_t remaining = n_cells - next;
        const std::size_t take = (remaining + 2 * w - 1) / (2 * w);
        std::vector<std::uint64_t> cells;
        cells.reserve(take);
        for (std::size_t i = 0; i < take; ++i)
            cells.push_back(static_cast<std::uint64_t>(next + i));
        shards.push_back(std::move(cells));
        next += take;
    }
    return shards;
}

} // namespace shard
} // namespace tg
