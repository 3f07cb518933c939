/**
 * @file
 * Palermo protocol state (paper Algorithm 2): pending-aware uniform
 * leaf resolution, per-level begin/commit, and the prefetch admission
 * filter.
 */

#include "oram/palermo.hh"

#include <algorithm>

#include "common/log.hh"

namespace palermo {

PalermoOram::PalermoOram(const ProtocolConfig &config)
    : hier_(config, {0x50414c4dull, 131, 857},
            [&config](unsigned level, std::uint64_t blocks) {
                // The Data tree widens its blocks to prefetchLen lines
                // (Palermo+Prefetch); PosMap trees keep 64B blocks.
                const unsigned lines =
                    level == kLevelData ? config.prefetchLen : 1;
                return LevelShape{
                    OramParams::ring(
                        std::max<std::uint64_t>(1, blocks / lines),
                        config.ringZ, config.ringS, config.ringA,
                        kBlockBytes * lines),
                    config.stashCapacity};
            },
            [](const OramParams &params, Addr base, unsigned cached,
               std::uint64_t seed, std::size_t stash_capacity) {
                return std::make_unique<RingEngine>(
                    params, base, ReshuffleMode::Pre, cached, seed,
                    stash_capacity);
            }),
      filter_(kLlcResidentLines)
{
}

bool
PalermoOram::filterHit(BlockId pa, bool write, std::uint64_t value)
{
    const unsigned lines = config().prefetchLen;
    if (lines <= 1)
        return false;
    if (!filter_.hit(pa))
        return false;
    // Keep payloads coherent: a store to a resident line whose widened
    // block is still stashed updates it in place.
    const BlockId block = pa / lines;
    RingEngine &data = hier_.engine(kLevelData);
    if (write && data.inStash(block))
        data.setPayload(block, value);
    ++stats_.llcHits;
    return true;
}

std::array<BlockId, kHierLevels>
PalermoOram::decompose(BlockId pa) const
{
    auto ids = config().decompose(pa);
    if (config().prefetchLen > 1)
        ids[kLevelData] = pa / config().prefetchLen;
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
    // Algorithm 2 line 5: pending blocks (still in the stash) read a
    // fresh uniformly random path; their real content is served from the
    // stash.
    Leaf leaf;
    if (hier_.engine(level).inStash(block)) {
        leaf = hier_.randomLeaf(level);
        ++stats_.pendingServes;
    } else {
        leaf = hier_.posMap(level).get(block);
    }
    hier_.remapInto(level, block, leaf, plan);
    if (level == kLevelData)
        ++stats_.requests;
}

std::uint64_t
PalermoOram::finishData(BlockId pa, bool write, std::uint64_t value)
{
    const BlockId block = decompose(pa)[kLevelData];
    const std::uint64_t payload = hier_.serve(block, write, value);
    const unsigned lines = config().prefetchLen;
    if (lines > 1) {
        // One widened tree block covers prefetchLen lines; all of them
        // are now LLC-resident.
        const BlockId base = block * lines;
        for (unsigned i = 0; i < lines; ++i) {
            if (base + i < config().numBlocks)
                filter_.insert(base + i);
        }
    }
    return payload;
}

} // namespace palermo
