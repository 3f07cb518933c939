/**
 * @file
 * Position-map storage: PRF defaults stored for every block of a dense
 * map, evaluated on demand for never-touched entries of a sparse one.
 */

#include "oram/posmap.hh"

#include <algorithm>

#include "common/log.hh"
#include "oram/oram_params.hh"

namespace palermo {

PosMap::PosMap(std::uint64_t num_blocks, std::uint64_t num_leaves,
               std::uint64_t prf_key, unsigned default_group)
    : numBlocks_(num_blocks), numLeaves_(num_leaves), prf_(prf_key),
      defaultGroup_(default_group)
{
    palermo_assert(num_blocks > 0 && num_leaves > 0);
    palermo_assert(default_group >= 1);
    if (num_blocks <= kDenseLimit) {
        palermo_assert(num_leaves <= kMaxTreeBlocks, "leaf beyond 32 bits");
        dense_.resize(num_blocks);
        for (BlockId first = 0; first < num_blocks; first += default_group) {
            const auto leaf = static_cast<std::uint32_t>(
                prf_.evalMod(first / default_group, num_leaves));
            std::fill_n(dense_.begin() + first,
                        std::min<std::uint64_t>(default_group,
                                                num_blocks - first),
                        leaf);
        }
    }
}

} // namespace palermo
