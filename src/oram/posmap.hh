/**
 * @file
 * Position map: block -> leaf assignment for one ORAM tree.
 *
 * Entries default to PRF(key, block) until first remapped, which is
 * equivalent to the uniform random initialization assumed by the
 * PathORAM proof while keeping host memory proportional to the touched
 * working set. The hierarchical designs layer three of these (the two
 * lower ones are content-stored inside PosMap ORAM blocks; this class
 * tracks the authoritative mapping the simulator validates against).
 *
 * Storage is hybrid: trees up to kDenseLimit blocks use a direct array
 * of 32-bit leaves that the constructor fills with every block's PRF
 * default, each evaluated once. get() is then one load (the position
 * map is consulted on every access of every tree in the hierarchy), and
 * TreeStore's bulk load reads each block's leaf from it in block order.
 * Larger trees fall back to a flat open-addressing map of the entries
 * set so far, with the PRF evaluated on demand for the rest, so host
 * memory stays proportional to the touched working set. Leaf counts
 * obey the 32-bit rule of kMaxTreeBlocks (oram/oram_params.hh).
 */

#ifndef PALERMO_ORAM_POSMAP_HH
#define PALERMO_ORAM_POSMAP_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "crypto/prf.hh"

namespace palermo {

/** Lazy position map with PRF-derived defaults. */
class PosMap
{
  public:
    /**
     * @param num_blocks Protected block count of the tree.
     * @param num_leaves Leaf count of the tree.
     * @param prf_key Key for default-entry derivation.
     * @param default_group Blocks per shared default leaf: 1 for the
     *        standard independent-uniform initialization; the prefetch
     *        group size for PrORAM/LAORAM, whose protocol forces
     *        consecutive blocks onto one leaf.
     */
    PosMap(std::uint64_t num_blocks, std::uint64_t num_leaves,
           std::uint64_t prf_key, unsigned default_group = 1);

    /** Current leaf of a block. */
    Leaf
    get(BlockId block) const
    {
        palermo_assert(block < numBlocks_, "posmap block out of range");
        if (!dense_.empty())
            return dense_[block];
        if (const Leaf *leaf = entries_.findValue(block))
            return *leaf;
        return prf_.evalMod(block / defaultGroup_, numLeaves_);
    }

    /** Remap a block to a new leaf. */
    void
    set(BlockId block, Leaf leaf)
    {
        palermo_assert(block < numBlocks_);
        palermo_assert(leaf < numLeaves_);
        if (!dense_.empty())
            dense_[block] = static_cast<std::uint32_t>(leaf);
        else
            entries_.insert_or_assign(block, leaf);
    }

    std::uint64_t numBlocks() const { return numBlocks_; }
    std::uint64_t numLeaves() const { return numLeaves_; }

  private:
    /** Largest tree stored densely: 4M blocks = a 16 MB leaf array. */
    static constexpr std::uint64_t kDenseLimit = std::uint64_t{1} << 22;

    std::uint64_t numBlocks_;
    std::uint64_t numLeaves_;
    Prf prf_;
    unsigned defaultGroup_;
    /** Every block's leaf (small trees); empty above kDenseLimit. */
    std::vector<std::uint32_t> dense_;
    /** Flat-map fallback for beyond-kDenseLimit trees. */
    FlatMap<BlockId, Leaf> entries_;
};

} // namespace palermo

#endif // PALERMO_ORAM_POSMAP_HH
