/** @file Tests for hierarchy plumbing: config, filter, prefill, leaves. */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "oram/hierarchy.hh"
#include "oram/ir_oram.hh"
#include "oram/palermo.hh"
#include "oram/path_oram.hh"
#include "oram/pr_oram.hh"
#include "oram/ring_oram.hh"

namespace palermo {
namespace {

TEST(ProtocolConfig, LevelBlocksShrinkByFanout)
{
    ProtocolConfig config;
    config.numBlocks = 1 << 16;
    config.posFanout = 16;
    const auto blocks = config.levelBlocks();
    EXPECT_EQ(blocks[kLevelData], 1u << 16);
    EXPECT_EQ(blocks[kLevelPos1], 1u << 12);
    EXPECT_EQ(blocks[kLevelPos2], 1u << 8);
}

TEST(ProtocolConfig, LevelBlocksRoundUp)
{
    ProtocolConfig config;
    config.numBlocks = 17;
    config.posFanout = 16;
    const auto blocks = config.levelBlocks();
    EXPECT_EQ(blocks[kLevelPos1], 2u);
    EXPECT_EQ(blocks[kLevelPos2], 1u);
}

TEST(ProtocolConfig, DecomposeConsistent)
{
    ProtocolConfig config;
    config.numBlocks = 1 << 12;
    const auto ids = config.decompose(0xABC);
    EXPECT_EQ(ids[kLevelData], 0xABCu);
    EXPECT_EQ(ids[kLevelPos1], 0xABCu / 16);
    EXPECT_EQ(ids[kLevelPos2], 0xABCu / 256);
    const auto blocks = config.levelBlocks();
    for (unsigned level = 0; level < kHierLevels; ++level)
        EXPECT_LT(ids[level], blocks[level]);
}

TEST(PrefetchFilter, HitAfterInsert)
{
    PrefetchFilter filter(4);
    EXPECT_FALSE(filter.hit(1));
    filter.insert(1);
    EXPECT_TRUE(filter.hit(1));
}

TEST(PrefetchFilter, LruEviction)
{
    PrefetchFilter filter(2);
    filter.insert(1);
    filter.insert(2);
    filter.insert(3); // Evicts 1.
    EXPECT_FALSE(filter.hit(1));
    EXPECT_TRUE(filter.hit(2));
    EXPECT_TRUE(filter.hit(3));
}

TEST(PrefetchFilter, HitRefreshesRecency)
{
    PrefetchFilter filter(2);
    filter.insert(1);
    filter.insert(2);
    EXPECT_TRUE(filter.hit(1)); // 1 becomes most recent.
    filter.insert(3);           // Evicts 2.
    EXPECT_TRUE(filter.hit(1));
    EXPECT_FALSE(filter.hit(2));
}

TEST(PrefetchFilter, ReinsertIsIdempotent)
{
    PrefetchFilter filter(2);
    filter.insert(1);
    filter.insert(1);
    filter.insert(2);
    EXPECT_TRUE(filter.hit(1));
    EXPECT_EQ(filter.size(), 2u);
}

TEST(Prefill, FirstAccessFindsPlantedBlocks)
{
    ProtocolConfig config;
    config.numBlocks = 1 << 10;
    config.ringZ = 4;
    config.ringS = 5;
    config.ringA = 3;
    config.prefill = true;
    RingOram oram(config);
    // Prefilled: no access conjures a fresh block.
    for (BlockId pa = 0; pa < 64; ++pa) {
        const auto plans = oram.access(pa * 7 % (1 << 10), false, 0);
        for (const auto &level : plans[0].levels)
            EXPECT_FALSE(level.freshBlock) << "pa " << pa;
    }
}

TEST(Prefill, DisabledStartsEmpty)
{
    ProtocolConfig config;
    config.numBlocks = 1 << 10;
    config.ringZ = 4;
    config.ringS = 5;
    config.ringA = 3;
    config.prefill = false;
    RingOram oram(config);
    const auto plans = oram.access(5, false, 0);
    EXPECT_TRUE(plans[0].levels.back().freshBlock);
}

TEST(Prefill, PlantedBlocksSatisfyInvariant)
{
    ProtocolConfig config;
    config.numBlocks = 1 << 10;
    config.ringZ = 4;
    config.ringS = 5;
    config.ringA = 3;
    RingOram oram(config);
    for (BlockId pa = 0; pa < (1 << 10); pa += 13)
        EXPECT_TRUE(oram.checkBlockInvariant(pa)) << pa;
}

TEST(Prefill, SkipsHugeSpaces)
{
    // Above kPrefillLimit construction must stay cheap (lazy).
    ProtocolConfig config;
    config.numBlocks = 1ull << 26;
    RingOram oram(config);
    EXPECT_TRUE(oram.access(123, false, 0)[0].levels.back().freshBlock);
}

/**
 * Every real slot of every level's tree holds its block's position-map
 * leaf. A block in a bucket is never remapped in place (node_meta.hh),
 * and TreeStore keeps one leaf per resident block on that rule.
 */
template <typename Engine>
void
expectSlotLeavesMatchPosMaps(const Hierarchy<Engine> &hier)
{
    for (unsigned level = 0; level < kHierLevels; ++level) {
        const TreeStore &tree = hier.engine(level).tree();
        const PosMap &posmap = hier.posMap(level);
        std::uint64_t real = 0;
        for (NodeId node = 0; node < tree.params().numNodes; ++node) {
            const auto bucket = tree.peek(node);
            if (!bucket)
                continue;
            for (unsigned i = 0; i < bucket.slots(); ++i) {
                const BlockContent content = bucket.slot(i);
                if (content.block >= TreeStore::kUsedSlot)
                    continue;
                ++real;
                ASSERT_EQ(content.leaf, posmap.get(content.block))
                    << "level " << level << " block " << content.block;
            }
        }
        EXPECT_GT(real, 0u) << "level " << level;
    }
}

/**
 * Mixed traffic: uniform keys and sequential runs (which prefetch
 * groups and widened blocks absorb), a third of them stores.
 * access(pa, write, value) issues one miss.
 */
void
driveMixed(std::uint64_t blocks,
           const std::function<void(BlockId, bool, std::uint64_t)> &access)
{
    constexpr int kAccesses = 30000;
    Rng rng(11);
    BlockId pa = 0;
    for (int i = 0; i < kAccesses; ++i) {
        pa = rng.chance(0.5) ? rng.range(blocks) : (pa + 1) % blocks;
        access(pa, rng.chance(1.0 / 3), rng.next());
    }
}

/** Mixed traffic through a Protocol, then the leaf check. */
template <typename Oram>
void
checkSerialProtocol(Oram &oram)
{
    std::vector<RequestPlan> plans;
    driveMixed(oram.hierarchy().config().numBlocks,
               [&](BlockId pa, bool write, std::uint64_t value) {
                   plans.clear();
                   oram.accessInto(pa, write, value, &plans);
                   for (RequestPlan &plan : plans)
                       oram.recyclePlan(std::move(plan));
               });
    expectSlotLeavesMatchPosMaps(oram.hierarchy());
}

/** Mixed traffic through Palermo's per-level steps, then the check. */
void
checkPalermo(PalermoOram &oram)
{
    LevelPlan plan;
    driveMixed(oram.config().numBlocks,
               [&](BlockId pa, bool write, std::uint64_t value) {
                   if (oram.filterHit(pa, write, value))
                       return;
                   const auto ids = oram.decompose(pa);
                   for (const unsigned level :
                        {kLevelPos2, kLevelPos1, kLevelData})
                       oram.beginLevelInto(level, ids[level], &plan);
                   oram.finishData(pa, write, value);
               });
    expectSlotLeavesMatchPosMaps(oram.hierarchy());
}

/** (protocol variant, prefilled) */
using SlotLeafCase = std::tuple<std::string, bool>;

class SlotLeaves : public ::testing::TestWithParam<SlotLeafCase>
{
};

TEST_P(SlotLeaves, MatchPosMapsAfterMixedAccesses)
{
    const auto &[variant, prefill] = GetParam();
    ProtocolConfig config;
    config.numBlocks = 1 << 14;
    config.prefill = prefill;
    if (variant == "ring") {
        RingOram oram(config);
        checkSerialProtocol(oram);
    } else if (variant == "path") {
        PathOram oram(config);
        checkSerialProtocol(oram);
    } else if (variant == "page") {
        PathOram oram(config, PathOram::Variant::Page);
        checkSerialProtocol(oram);
    } else if (variant == "ir") {
        IrOram oram(config);
        checkSerialProtocol(oram);
    } else if (variant == "palermo" || variant == "palermo_pf4") {
        config.prefetchLen = variant == "palermo" ? 1 : 4;
        PalermoOram oram(config);
        checkPalermo(oram);
    } else {
        // PrORAM at prefetch 2; LAORAM (prefetch 4 on the fat tree);
        // prefetch 4 with the throttle off.
        config.prefetchLen = variant == "pr2" ? 2 : 4;
        config.fatTree = variant == "laoram4";
        config.throttle = variant != "pr4_unthrottled";
        PrOram oram(config);
        checkSerialProtocol(oram);
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryProtocol, SlotLeaves,
    ::testing::Combine(::testing::Values("ring", "path", "page", "ir",
                                         "pr2", "laoram4", "pr4_unthrottled",
                                         "palermo", "palermo_pf4"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<SlotLeafCase> &info) {
        return std::get<0>(info.param) +
            (std::get<1>(info.param) ? "_prefilled" : "_lazy");
    });

TEST(CachedLevelsFor, MonotoneInBudget)
{
    const OramParams params = OramParams::ring(1 << 14, 16, 27, 20);
    unsigned previous = 0;
    for (std::uint64_t budget = 0; budget < (1 << 20);
         budget = budget * 2 + 1024) {
        const unsigned levels = cachedLevelsFor(params, budget);
        EXPECT_GE(levels, previous);
        previous = levels;
    }
}

} // namespace
} // namespace palermo
