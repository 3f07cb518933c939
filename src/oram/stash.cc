/**
 * @file
 * Stash insert/evict/lookup with capacity accounting and watermark
 * tracking over the dense-vector + flat-index layout.
 */

#include "oram/stash.hh"

#include "common/log.hh"
#include "oram/oram_params.hh"

namespace palermo {

Stash::Stash(std::size_t capacity) : capacity_(capacity)
{
    palermo_assert(capacity > 0);
    items_.reserve(capacity);
    index_.reserve(capacity);
}

void
Stash::noteOccupancy()
{
    const std::size_t occ = items_.size();
    if (occ > highWatermark_)
        highWatermark_ = occ;
    if (occ > windowWatermark_)
        windowWatermark_ = occ;
    if (occ > capacity_)
        overflowed_ = true;
}

StashEntry &
Stash::entry(BlockId block)
{
    const std::uint32_t *slot = index_.findValue(block);
    palermo_assert(slot != nullptr, "block missing from stash");
    return items_[*slot].entry;
}

const StashEntry &
Stash::entry(BlockId block) const
{
    const std::uint32_t *slot = index_.findValue(block);
    palermo_assert(slot != nullptr, "block missing from stash");
    return items_[*slot].entry;
}

void
Stash::put(BlockId block, Leaf leaf, std::uint64_t payload)
{
    palermo_assert(block != kInvalid);
    auto [it, inserted] =
        index_.emplace(block, static_cast<std::uint32_t>(items_.size()));
    if (inserted)
        items_.push_back(StashItem{block, StashEntry{leaf, payload}});
    else
        items_[it->second].entry = StashEntry{leaf, payload};
    noteOccupancy();
}

void
Stash::remap(BlockId block, Leaf leaf)
{
    entry(block).leaf = leaf;
}

StashEntry
Stash::take(BlockId block)
{
    const std::uint32_t *slot = index_.findValue(block);
    palermo_assert(slot != nullptr, "take of absent block");
    const std::uint32_t idx = *slot;
    StashEntry out = items_[idx].entry;
    index_.erase(block);
    const std::uint32_t last = static_cast<std::uint32_t>(items_.size()) - 1;
    if (idx != last) {
        items_[idx] = items_[last];
        index_.at(items_[idx].block) = idx;
    }
    items_.pop_back();
    return out;
}

void
Stash::eligibleForInto(NodeId node, const OramParams &params,
                       std::size_t max_count, BlockId exclude,
                       std::vector<BlockId> *out) const
{
    out->clear();
    for (const StashItem &item : items_) {
        if (out->size() >= max_count)
            break;
        if (item.block == exclude)
            continue;
        if (params.onPath(node, item.entry.leaf))
            out->push_back(item.block);
    }
}

} // namespace palermo
