/**
 * @file
 * Lazy bucket materialization so the 16 GB Table III geometry is
 * constructible without allocating 2^25 nodes up front, and the
 * level-wise bulk loader for prefilled trees.
 */

#include "oram/tree_store.hh"

#include <algorithm>

#include "common/log.hh"
#include "oram/posmap.hh"

namespace palermo {

TreeStore::TreeStore(const OramParams &params)
    : params_(params)
{
    params_.check();
    palermo_assert(params_.numBlocks < kUsedWord &&
                       params_.numLeaves < kNotResident,
                   "tree exceeds 32-bit block ids or leaves");
    directLimit_ = std::min(params_.numNodes, kDirectNodes);
    direct_.assign(directLimit_, kNoBucket);
    levelCapacity_.resize(params_.levels);
    levelSlots_.resize(params_.levels);
    for (unsigned level = 0; level < params_.levels; ++level) {
        levelCapacity_[level] = params_.capacityAt(level);
        levelSlots_[level] = params_.slotsAt(level);
    }
}

std::uint32_t
TreeStore::materialize(NodeId id)
{
    const unsigned level = params_.levelOf(id);
    const std::uint32_t index = static_cast<std::uint32_t>(level_.size());
    const unsigned slots = levelSlots_[level];

    level_.push_back(static_cast<std::uint8_t>(level));
    accessed_.push_back(0);
    slotBase_.push_back(slotBlock_.size());
    slotBlock_.insert(slotBlock_.end(), slots, kDummyWord);

    if (id < directLimit_)
        direct_[id] = index;
    else
        tail_.emplace(id, index);
    return index;
}

std::uint64_t
TreeStore::totalValidBlocks() const
{
    std::uint64_t total = 0;
    for (const std::uint32_t word : slotBlock_)
        total += word < kUsedWord;
    return total;
}

std::vector<BlockContent>
TreeStore::prefill(const PosMap &posmap, bool siblings)
{
    palermo_assert(level_.empty(), "prefill of a touched tree");
    palermo_assert(posmap.numBlocks() == params_.numBlocks &&
                   posmap.numLeaves() == params_.numLeaves);

    // Reservation rule (file comment): room for every bucket up front,
    // and the dense per-block records.
    std::uint64_t tree_slots = 0;
    for (unsigned level = 0; level < params_.levels; ++level)
        tree_slots += (std::uint64_t{1} << level) * levelSlots_[level];
    level_.reserve(params_.numNodes);
    accessed_.reserve(params_.numNodes);
    slotBase_.reserve(params_.numNodes);
    slotBlock_.reserve(tree_slots);
    dense_.assign(params_.numBlocks, Resident{});

    // Per-level scratch indexed by position within the level, sized by
    // the leaf level and reused upward: bucket index and blocks placed.
    std::vector<std::uint32_t> bucket;
    std::vector<std::uint32_t> filled;
    // Blocks still climbing, in block-id order: arriving at this level
    // and overflowing it.
    std::vector<BlockContent> arriving;
    std::vector<BlockContent> overflow;

    for (unsigned level = params_.leafLevel() + 1; level-- > 0;) {
        const unsigned shift = params_.leafLevel() - level;
        const unsigned capacity = levelCapacity_[level];
        const bool pairs = siblings && level > 0;
        bucket.assign(std::uint64_t{1} << level, kNoBucket);
        filled.assign(std::uint64_t{1} << level, 0);
        overflow.clear();

        // Trying a bucket materializes it, as the greedy loop's
        // node() lookup did, whether or not the block fits.
        const auto place = [&](std::uint64_t pos, BlockId block, Leaf leaf) {
            if (bucket[pos] == kNoBucket)
                bucket[pos] = materialize(params_.nodeAt(level, pos));
            if (filled[pos] == capacity)
                return false;
            enter({block, 0, leaf});
            slotBlock_[slotBase_[bucket[pos]] + filled[pos]++] =
                static_cast<std::uint32_t>(block);
            return true;
        };
        const auto arrive = [&](BlockId block, Leaf leaf) {
            const std::uint64_t pos = leaf >> shift;
            if (!place(pos, block, leaf) &&
                !(pairs && place(pos ^ 1, block, leaf)))
                overflow.push_back({block, 0, leaf});
        };

        if (level == params_.leafLevel()) {
            for (BlockId block = 0; block < params_.numBlocks; ++block)
                arrive(block, posmap.get(block));
        } else {
            for (const BlockContent &content : arriving)
                arrive(content.block, content.leaf);
        }
        arriving.swap(overflow);
    }
    return arriving;
}

} // namespace palermo
