/** @file Unit tests for PrORAM / LAORAM (prefetch + background eviction). */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "oram/pr_oram.hh"

namespace palermo {
namespace {

ProtocolConfig
smallConfig(unsigned prefetch, bool fat_tree = false,
            bool throttle = false)
{
    ProtocolConfig config;
    config.numBlocks = 1 << 12;
    config.pathZ = 4;
    config.prefetchLen = prefetch;
    config.fatTree = fat_tree;
    config.throttle = throttle;
    config.prStashCapacity = 256;
    config.treetopBytes = {4096, 2048, 1024};
    return config;
}

TEST(PrOram, ReadYourWritesNoPrefetch)
{
    PrOram oram(smallConfig(1));
    Rng rng(1);
    std::map<BlockId, std::uint64_t> shadow;
    for (int i = 0; i < 500; ++i) {
        const BlockId pa = rng.range(1 << 12);
        if (rng.chance(0.5)) {
            const std::uint64_t value = rng.next();
            oram.access(pa, true, value);
            shadow[pa] = value;
        } else {
            const auto plans = oram.access(pa, false, 0);
            EXPECT_EQ(plans.back().value,
                      shadow.count(pa) ? shadow[pa] : 0u);
        }
    }
}

TEST(PrOram, PrefetchFiltersGroupSiblings)
{
    PrOram oram(smallConfig(4));
    const auto first = oram.access(8, false, 0);
    EXPECT_FALSE(first.back().llcHit);
    // Siblings 9..11 were prefetched into the LLC.
    EXPECT_TRUE(oram.access(9, false, 0).back().llcHit);
    EXPECT_TRUE(oram.access(10, false, 0).back().llcHit);
    EXPECT_EQ(oram.prStats().llcHits, 2u);
}

TEST(PrOram, StreamingWithPrefetchInsertsDummies)
{
    // The Fig. 4 mechanism: perfect-locality streaming with same-leaf
    // groups piles the stash up until dummy background evictions fire.
    PrOram oram(smallConfig(8));
    for (BlockId pa = 0; pa < 3000; ++pa)
        oram.access(pa % (1 << 12), false, 0);
    EXPECT_GT(oram.prStats().dummyRequests, 0u);
    EXPECT_GT(oram.prStats().dummyRatio(), 0.1);
}

TEST(PrOram, DummyRatioGrowsWithPrefetchLength)
{
    double previous = -1.0;
    for (unsigned pf : {2u, 8u}) {
        PrOram oram(smallConfig(pf));
        for (BlockId pa = 0; pa < 3000; ++pa)
            oram.access(pa % (1 << 12), false, 0);
        EXPECT_GT(oram.prStats().dummyRatio(), previous);
        previous = oram.prStats().dummyRatio();
    }
}

TEST(PrOram, FatTreeReducesDummyRatio)
{
    PrOram plain(smallConfig(8, false));
    PrOram fat(smallConfig(8, true));
    for (BlockId pa = 0; pa < 3000; ++pa) {
        plain.access(pa % (1 << 12), false, 0);
        fat.access(pa % (1 << 12), false, 0);
    }
    EXPECT_LT(fat.prStats().dummyRatio(), plain.prStats().dummyRatio());
}

TEST(PrOram, ThrottleCutsDummies)
{
    PrOram free_run(smallConfig(8, false, false));
    PrOram throttled(smallConfig(8, false, true));
    for (BlockId pa = 0; pa < 3000; ++pa) {
        free_run.access(pa % (1 << 12), false, 0);
        throttled.access(pa % (1 << 12), false, 0);
    }
    EXPECT_LT(throttled.prStats().dummyRatio(),
              free_run.prStats().dummyRatio());
    EXPECT_GT(throttled.prStats().throttledAccesses, 0u);
}

TEST(PrOram, InvariantUnderGroupRemap)
{
    PrOram oram(smallConfig(4));
    Rng rng(2);
    std::vector<BlockId> touched;
    for (int i = 0; i < 250; ++i) {
        const BlockId pa = rng.range(1 << 12);
        oram.access(pa, true, pa);
        touched.push_back(pa);
        for (BlockId b : touched)
            EXPECT_TRUE(oram.checkBlockInvariant(b)) << "pa " << b;
    }
}

TEST(PrOram, ReadYourWritesWithPrefetch)
{
    PrOram oram(smallConfig(4));
    Rng rng(3);
    std::map<BlockId, std::uint64_t> shadow;
    for (int i = 0; i < 400; ++i) {
        const BlockId pa = rng.range(1 << 10);
        if (rng.chance(0.5)) {
            const std::uint64_t value = rng.next();
            oram.access(pa, true, value);
            shadow[pa] = value;
        } else {
            const auto plans = oram.access(pa, false, 0);
            if (!plans.back().llcHit) {
                EXPECT_EQ(plans.back().value,
                          shadow.count(pa) ? shadow[pa] : 0u);
            }
        }
    }
}

TEST(PrOram, DummiesTargetOnlyDataTree)
{
    PrOram oram(smallConfig(8));
    for (BlockId pa = 0; pa < 2000; ++pa) {
        const auto plans = oram.access(pa % (1 << 12), false, 0);
        for (const auto &plan : plans) {
            if (plan.dummy) {
                ASSERT_EQ(plan.levels.size(), 1u);
                EXPECT_EQ(plan.levels[0].level, kLevelData);
            }
        }
    }
}

} // namespace
} // namespace palermo
