/**
 * @file
 * Position-map storage with PRF defaults for never-touched entries.
 */

#include "oram/posmap.hh"

#include "common/log.hh"

namespace palermo {

PosMap::PosMap(std::uint64_t num_blocks, std::uint64_t num_leaves,
               std::uint64_t prf_key, unsigned default_group)
    : numBlocks_(num_blocks), numLeaves_(num_leaves), prf_(prf_key),
      defaultGroup_(default_group)
{
    palermo_assert(num_blocks > 0 && num_leaves > 0);
    palermo_assert(default_group >= 1);
    if (num_blocks <= kDenseLimit) {
        palermo_assert(num_leaves < kUntouched, "leaf beyond 32 bits");
        dense_.assign(num_blocks, kUntouched);
    }
}

} // namespace palermo
