/** @file Unit tests for the Palermo protocol (Algorithm 2) state. */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "oram/palermo.hh"

namespace palermo {
namespace {

ProtocolConfig
smallConfig(unsigned prefetch = 1)
{
    ProtocolConfig config;
    config.numBlocks = 1 << 12;
    config.ringZ = 4;
    config.ringS = 5;
    config.ringA = 3;
    config.prefetchLen = prefetch;
    config.treetopBytes = {4096, 2048, 1024};
    return config;
}

/** Runs a full request through all levels in protocol order. */
std::uint64_t
fullAccess(PalermoOram &oram, BlockId pa, bool write = false,
           std::uint64_t value = 0)
{
    const auto ids = oram.decompose(pa);
    for (unsigned level = kHierLevels; level-- > 0;)
        oram.beginLevel(level, ids[level]);
    return oram.finishData(pa, write, value);
}

TEST(PalermoOram, ReadYourWrites)
{
    PalermoOram oram(smallConfig());
    Rng rng(1);
    std::map<BlockId, std::uint64_t> shadow;
    for (int i = 0; i < 800; ++i) {
        const BlockId pa = rng.range(1 << 12);
        if (rng.chance(0.5)) {
            const std::uint64_t value = rng.next();
            fullAccess(oram, pa, true, value);
            shadow[pa] = value;
        } else {
            EXPECT_EQ(fullAccess(oram, pa),
                      shadow.count(pa) ? shadow[pa] : 0u);
        }
    }
}

TEST(PalermoOram, PendingBlockUsesRandomLeafAndStashServe)
{
    PalermoOram oram(smallConfig());
    const LevelPlan first = oram.beginLevel(kLevelData, 9);
    EXPECT_FALSE(first.servedFromStash);
    // Block 9 is now pending in the stash. Algorithm 2 line 5: the
    // second access reads a random path and serves from the stash.
    const LevelPlan second = oram.beginLevel(kLevelData, 9);
    EXPECT_TRUE(second.servedFromStash);
    EXPECT_EQ(oram.palermoStats().pendingServes, 1u);
}

TEST(PalermoOram, PendingLeafIndependentOfPosMap)
{
    // While pending, the read leaf must not be the posmap leaf written
    // by the previous access (which has not been exposed on the bus).
    PalermoOram oram(smallConfig());
    oram.beginLevel(kLevelData, 9);
    const Leaf mapped = oram.hierarchy().posMap(kLevelData).get(9);
    int same = 0;
    const int trials = 64;
    for (int i = 0; i < trials; ++i) {
        PalermoOram fresh(smallConfig());
        fresh.beginLevel(kLevelData, 9);
        const Leaf mapped_now = fresh.hierarchy().posMap(kLevelData).get(9);
        const LevelPlan second = fresh.beginLevel(kLevelData, 9);
        same += (second.oldLeaf == mapped_now);
    }
    (void)mapped;
    // A uniformly random leaf collides with the mapped one rarely.
    EXPECT_LT(same, trials / 4);
}

TEST(PalermoOram, InvariantMaintained)
{
    PalermoOram oram(smallConfig());
    Rng rng(2);
    std::vector<BlockId> touched;
    for (int i = 0; i < 300; ++i) {
        const BlockId pa = rng.range(1 << 12);
        fullAccess(oram, pa, true, pa);
        touched.push_back(pa);
        for (BlockId b : touched)
            EXPECT_TRUE(oram.checkBlockInvariant(b)) << "pa " << b;
    }
}

TEST(PalermoOram, StashesBoundedUnderPaperParams)
{
    ProtocolConfig config = smallConfig();
    config.ringZ = 16;
    config.ringS = 27;
    config.ringA = 20;
    PalermoOram oram(config);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i)
        fullAccess(oram, rng.range(1 << 12), rng.chance(0.3), i);
    for (unsigned level = 0; level < kHierLevels; ++level) {
        EXPECT_FALSE(oram.stashOf(level).overflowed());
        EXPECT_LT(oram.stashOf(level).highWatermark(), 256u);
    }
}

TEST(PalermoOram, PreCheckPhaseOrder)
{
    PalermoOram oram(smallConfig());
    const LevelPlan plan = oram.beginLevel(kLevelData, 1);
    ASSERT_GE(plan.phases.size(), 4u);
    EXPECT_EQ(plan.phases[0].kind, PhaseKind::LoadMeta);
    EXPECT_EQ(plan.phases[1].kind, PhaseKind::ResetRead);
    EXPECT_EQ(plan.phases[2].kind, PhaseKind::ResetWrite);
    EXPECT_EQ(plan.phases[3].kind, PhaseKind::ReadPath);
}

TEST(PalermoOram, DecomposeMatchesFanout)
{
    PalermoOram oram(smallConfig());
    const auto ids = oram.decompose(0x345);
    EXPECT_EQ(ids[kLevelData], 0x345u);
    EXPECT_EQ(ids[kLevelPos1], 0x345u / 16);
    EXPECT_EQ(ids[kLevelPos2], 0x345u / 256);
}

TEST(PalermoOram, PrefetchWidensDataBlocks)
{
    PalermoOram oram(smallConfig(4));
    const auto &hier = oram.hierarchy();
    EXPECT_EQ(hier.engine(kLevelData).params().blockBytes, 256u);
    EXPECT_EQ(hier.engine(kLevelData).params().numBlocks, (1u << 12) / 4);
    // PosMap trees unchanged (paper §V-C).
    EXPECT_EQ(hier.engine(kLevelPos1).params().blockBytes, 64u);
    const auto ids = oram.decompose(9);
    EXPECT_EQ(ids[kLevelData], 2u);
}

TEST(PalermoOram, PrefetchFilterAbsorbsGroupMisses)
{
    PalermoOram oram(smallConfig(4));
    EXPECT_FALSE(oram.filterHit(8, false, 0));
    fullAccess(oram, 8);
    // All four lines of the widened block are now LLC-resident.
    EXPECT_TRUE(oram.filterHit(9, false, 0));
    EXPECT_TRUE(oram.filterHit(10, false, 0));
    EXPECT_TRUE(oram.filterHit(11, false, 0));
    EXPECT_EQ(oram.palermoStats().llcHits, 3u);
}

TEST(PalermoOram, PrefetchKeepsStashTagsBounded)
{
    // Paper Fig. 12/§V-C: prefetch widens data blocks but does not
    // increase the number of stash tags.
    ProtocolConfig config = smallConfig(8);
    config.ringZ = 16;
    config.ringS = 27;
    config.ringA = 20;
    PalermoOram oram(config);
    Rng rng(5);
    for (int i = 0; i < 1500; ++i) {
        const BlockId pa = rng.range(1 << 12);
        if (!oram.filterHit(pa, false, 0))
            fullAccess(oram, pa);
    }
    EXPECT_FALSE(oram.stashOf(kLevelData).overflowed());
    EXPECT_LT(oram.stashOf(kLevelData).highWatermark(), 256u);
}

TEST(PalermoOram, PrefetchReadYourWrites)
{
    PalermoOram oram(smallConfig(4));
    // Same widened block (lines 4..7 share block 1).
    fullAccess(oram, 4, true, 44);
    EXPECT_EQ(fullAccess(oram, 5), 44u); // Group-granular payload.
}

TEST(PalermoOram, RequestsCounted)
{
    PalermoOram oram(smallConfig());
    fullAccess(oram, 1);
    fullAccess(oram, 2);
    EXPECT_EQ(oram.palermoStats().requests, 2u);
}

} // namespace
} // namespace palermo
