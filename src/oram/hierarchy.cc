/**
 * @file
 * Per-level space derivation, tree-top budget split, the LLC
 * prefetch-residency filter and the plan recycler shared by every
 * protocol.
 */

#include "oram/hierarchy.hh"

#include "common/log.hh"

namespace palermo {

std::array<std::uint64_t, kHierLevels>
ProtocolConfig::levelBlocks() const
{
    palermo_assert(numBlocks > 0 && posFanout > 1);
    std::array<std::uint64_t, kHierLevels> blocks{};
    blocks[kLevelData] = numBlocks;
    blocks[kLevelPos1] =
        std::max<std::uint64_t>(1, (numBlocks + posFanout - 1) / posFanout);
    blocks[kLevelPos2] = std::max<std::uint64_t>(
        1, (blocks[kLevelPos1] + posFanout - 1) / posFanout);
    return blocks;
}

std::array<BlockId, kHierLevels>
ProtocolConfig::decompose(BlockId pa) const
{
    palermo_assert(pa < numBlocks, "address outside protected space");
    std::array<BlockId, kHierLevels> ids{};
    ids[kLevelData] = pa;
    ids[kLevelPos1] = pa / posFanout;
    ids[kLevelPos2] = ids[kLevelPos1] / posFanout;
    return ids;
}

unsigned
cachedLevelsFor(const OramParams &params, std::uint64_t bytes)
{
    std::uint64_t used = 0;
    unsigned levels = 0;
    for (unsigned level = 0; level < params.levels; ++level) {
        const std::uint64_t nodes = std::uint64_t{1} << level;
        const std::uint64_t level_bytes = nodes
            * (static_cast<std::uint64_t>(params.slotsAt(level))
                   * params.blockBytes
               + kBlockBytes);
        if (used + level_bytes > bytes)
            break;
        used += level_bytes;
        ++levels;
    }
    return levels;
}

PrefetchFilter::PrefetchFilter(std::size_t capacity)
    : capacity_(capacity), lru_(&pool_)
{
    palermo_assert(capacity > 0);
}

bool
PrefetchFilter::hit(BlockId line)
{
    auto it = map_.find(line);
    if (it == map_.end())
        return false;
    // Relink in place: no node allocation, iterator stays valid.
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
}

void
PrefetchFilter::insert(BlockId line)
{
    auto it = map_.find(line);
    if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(line);
    map_[line] = lru_.begin();
    if (map_.size() > capacity_) {
        map_.erase(lru_.back());
        lru_.pop_back();
    }
}

RequestPlan
PlanRecycler::acquire(std::size_t levels)
{
    RequestPlan plan;
    if (!free_.empty()) {
        plan = std::move(free_.back());
        free_.pop_back();
    }
    plan.pa = kInvalid;
    plan.write = false;
    plan.dummy = false;
    plan.llcHit = false;
    plan.value = 0;
    // Resize by hand: resize() would free the dropped levels' op
    // buffers and build the next longer plan's levels from scratch.
    while (plan.levels.size() > levels) {
        spareLevels_.push_back(std::move(plan.levels.back()));
        plan.levels.pop_back();
    }
    plan.levels.reserve(levels);
    while (plan.levels.size() < levels) {
        if (spareLevels_.empty()) {
            plan.levels.emplace_back();
        } else {
            plan.levels.push_back(std::move(spareLevels_.back()));
            spareLevels_.pop_back();
        }
    }
    for (LevelPlan &level : plan.levels)
        level.reset();
    return plan;
}

void
PlanRecycler::recycle(RequestPlan &&plan)
{
    if (free_.size() < kMaxFree)
        free_.push_back(std::move(plan));
}

} // namespace palermo
