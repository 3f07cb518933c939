/**
 * @file
 * Palermo protocol state (paper Algorithm 2): pending-aware uniform
 * leaf resolution, per-level begin/commit, and the prefetch admission
 * filter.
 */

#include "oram/palermo.hh"

#include "common/log.hh"

namespace palermo {

PalermoOram::PalermoOram(const ProtocolConfig &config)
    : config_(config), rng_(mix64(config.seed) ^ 0x50414c4dull),
      filter_(config.llcResidentLines)
{
    const auto blocks = config.levelBlocks();
    Addr base = config.dramBase;
    for (unsigned level = 0; level < kHierLevels; ++level) {
        const unsigned block_bytes = (level == kLevelData)
            ? kBlockBytes * config.prefetchLen : kBlockBytes;
        const std::uint64_t level_blocks = (level == kLevelData)
            ? std::max<std::uint64_t>(1, blocks[level] / config.prefetchLen)
            : blocks[level];
        OramParams params = OramParams::ring(
            level_blocks, config.ringZ, config.ringS, config.ringA,
            block_bytes);
        const unsigned cached =
            cachedLevelsFor(params, config.treetopBytes[level]);
        engines_[level] = std::make_unique<RingEngine>(
            params, base, ReshuffleMode::Pre, cached,
            mix64(config.seed + 131 * level), config.stashCapacity);
        posMaps_[level] = std::make_unique<PosMap>(
            level_blocks, params.numLeaves,
            mix64(config.seed + 857 * level));
        if (config.prefill && level_blocks <= kPrefillLimit)
            prefillEngine(*engines_[level], *posMaps_[level]);
        base = engines_[level]->layout().endAddr();
    }
}

bool
PalermoOram::filterHit(BlockId pa, bool write, std::uint64_t value)
{
    if (config_.prefetchLen <= 1)
        return false;
    if (!filter_.hit(pa))
        return false;
    // Keep payloads coherent: a store to a resident line whose widened
    // block is still stashed updates it in place.
    const BlockId block = pa / config_.prefetchLen;
    RingEngine &data = *engines_[kLevelData];
    if (write && data.inStash(block))
        data.setPayload(block, value);
    ++stats_.llcHits;
    return true;
}

std::array<BlockId, kHierLevels>
PalermoOram::decompose(BlockId pa) const
{
    auto ids = config_.decompose(pa);
    if (config_.prefetchLen > 1)
        ids[kLevelData] = pa / config_.prefetchLen;
    return ids;
}

LevelPlan
PalermoOram::beginLevel(unsigned level, BlockId block)
{
    LevelPlan plan;
    beginLevelInto(level, block, &plan);
    return plan;
}

void
PalermoOram::beginLevelInto(unsigned level, BlockId block, LevelPlan *plan)
{
    palermo_assert(level < kHierLevels);
    RingEngine &engine = *engines_[level];
    PosMap &pm = *posMaps_[level];

    // Algorithm 2 line 5: pending blocks (still in the stash) read a
    // fresh uniformly random path; their real content is served from the
    // stash.
    Leaf leaf;
    if (engine.inStash(block)) {
        leaf = rng_.range(engine.params().numLeaves);
        ++stats_.pendingServes;
    } else {
        leaf = pm.get(block);
    }
    const Leaf new_leaf = rng_.range(engine.params().numLeaves);
    pm.set(block, new_leaf);

    engine.accessInto(block, leaf, new_leaf, plan);
    plan->level = level;
    if (level == kLevelData)
        ++stats_.requests;
}

std::uint64_t
PalermoOram::finishData(BlockId pa, bool write, std::uint64_t value)
{
    const BlockId block = decompose(pa)[kLevelData];
    RingEngine &data = *engines_[kLevelData];
    if (write)
        data.setPayload(block, value);
    if (config_.prefetchLen > 1) {
        // One widened tree block covers prefetchLen lines; all of them
        // are now LLC-resident.
        const BlockId base = block * config_.prefetchLen;
        for (unsigned i = 0; i < config_.prefetchLen; ++i) {
            if (base + i < config_.numBlocks)
                filter_.insert(base + i);
        }
    }
    return data.payloadOf(block);
}

Stash &
PalermoOram::stashOf(unsigned level)
{
    palermo_assert(level < kHierLevels);
    return engines_[level]->stash();
}

bool
PalermoOram::checkBlockInvariant(BlockId pa) const
{
    const BlockId block = decompose(pa)[kLevelData];
    const RingEngine &data = *engines_[kLevelData];
    if (data.inStash(block))
        return true;
    return data.satisfiesInvariant(block,
                                   posMaps_[kLevelData]->get(block));
}

} // namespace palermo
