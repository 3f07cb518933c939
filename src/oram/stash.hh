/**
 * @file
 * The ORAM stash: the small trusted on-chip buffer holding blocks in
 * flight between the tree and the processor.
 *
 * RingORAM proves a 256-entry stash overflows with probability < 2^-103;
 * Palermo preserves that bound by serializing EP after RP. The class
 * tracks occupancy watermarks so experiments (Fig. 12) can demonstrate
 * boundedness, and exposes an overflow signal PrORAM uses to trigger
 * background (dummy) evictions.
 *
 * Layout: entries live in a dense vector scanned in insertion order by
 * the eviction paths, with a flat open-addressing index on the side for
 * O(1) lookup. Iteration order is part of the stash contract — see
 * items() — because eviction candidate selection is simulator-visible:
 * the order determines which eligible blocks fill a bucket first, hence
 * which DRAM slots are written, hence timing. Insertion order with
 * swap-last-on-erase is a pure function of the operation sequence, so
 * runs are reproducible across standard libraries and allocators.
 */

#ifndef PALERMO_ORAM_STASH_HH
#define PALERMO_ORAM_STASH_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace palermo {

struct OramParams;

/** One stashed block with its current leaf assignment. */
struct StashEntry
{
    Leaf leaf = 0;
    std::uint64_t payload = 0;
};

/** A stash slot as seen by dense iteration. */
struct StashItem
{
    BlockId block = kInvalid;
    StashEntry entry;
};

/** Bounded on-chip stash with watermark accounting. */
class Stash
{
  public:
    explicit Stash(std::size_t capacity = 256);

    std::size_t capacity() const { return capacity_; }
    std::size_t occupancy() const { return items_.size(); }

    /** Highest occupancy ever observed. */
    std::size_t highWatermark() const { return highWatermark_; }

    /** Highest occupancy since the last watermark window reset. */
    std::size_t windowWatermark() const { return windowWatermark_; }
    void resetWindowWatermark() { windowWatermark_ = occupancy(); }

    /** True if occupancy ever exceeded capacity. */
    bool overflowed() const { return overflowed_; }

    bool contains(BlockId block) const { return index_.contains(block); }

    /** Lookup; panics if absent. */
    StashEntry &entry(BlockId block);
    const StashEntry &entry(BlockId block) const;

    /** Insert or overwrite a block. */
    void put(BlockId block, Leaf leaf, std::uint64_t payload);

    /** Update the leaf of a stashed block (remap-on-access). */
    void remap(BlockId block, Leaf leaf);

    /** Remove a block (eviction into the tree). */
    StashEntry take(BlockId block);

    /**
     * Collect up to `max_count` stashed blocks eligible for the given
     * node (their leaf path passes through it), in items() order, into
     * a caller-owned buffer (cleared first); does not remove them.
     * @param exclude Block to skip (the in-flight access target, which
     *        must stay in the stash until its request retires), or
     *        kInvalid.
     */
    void eligibleForInto(NodeId node, const OramParams &params,
                         std::size_t max_count, BlockId exclude,
                         std::vector<BlockId> *out) const;

    /**
     * Dense entries, oldest-first. Order contract: put() of a new
     * block appends; put()/remap() of a resident block keeps its
     * position; take() moves the last item into the vacated slot.
     * Eviction scans iterate this order, so it is load-bearing for
     * byte-determinism — do not reorder.
     */
    const std::vector<StashItem> &items() const { return items_; }

  private:
    void noteOccupancy();

    std::size_t capacity_;
    std::vector<StashItem> items_;
    FlatMap<BlockId, std::uint32_t> index_; ///< block -> items_ slot.
    std::size_t highWatermark_ = 0;
    std::size_t windowWatermark_ = 0;
    bool overflowed_ = false;
};

} // namespace palermo

#endif // PALERMO_ORAM_STASH_HH
