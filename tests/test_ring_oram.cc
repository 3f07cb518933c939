/** @file Unit tests for the hierarchical RingORAM protocol. */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "oram/ring_oram.hh"

namespace palermo {
namespace {

ProtocolConfig
smallConfig()
{
    ProtocolConfig config;
    config.numBlocks = 1 << 12;
    config.ringZ = 4;
    config.ringS = 5;
    config.ringA = 3;
    config.treetopBytes = {4096, 2048, 1024};
    return config;
}

TEST(RingOram, ThreeLevelPlansDeepestFirst)
{
    RingOram oram(smallConfig());
    const auto plans = oram.access(0, false, 0);
    ASSERT_EQ(plans.size(), 1u);
    ASSERT_EQ(plans[0].levels.size(), kHierLevels);
    EXPECT_EQ(plans[0].levels[0].level, kLevelPos2);
    EXPECT_EQ(plans[0].levels[1].level, kLevelPos1);
    EXPECT_EQ(plans[0].levels[2].level, kLevelData);
}

TEST(RingOram, ReadYourWritesAcrossHierarchy)
{
    RingOram oram(smallConfig());
    Rng rng(1);
    std::map<BlockId, std::uint64_t> shadow;
    for (int i = 0; i < 800; ++i) {
        const BlockId pa = rng.range(1 << 12);
        if (rng.chance(0.5)) {
            const std::uint64_t value = rng.next();
            oram.access(pa, true, value);
            shadow[pa] = value;
        } else {
            const auto plans = oram.access(pa, false, 0);
            const std::uint64_t expect =
                shadow.count(pa) ? shadow[pa] : 0;
            EXPECT_EQ(plans[0].value, expect) << "iter " << i;
        }
    }
}

TEST(RingOram, DataInvariantMaintained)
{
    RingOram oram(smallConfig());
    Rng rng(2);
    std::vector<BlockId> touched;
    for (int i = 0; i < 300; ++i) {
        const BlockId pa = rng.range(1 << 12);
        oram.access(pa, true, pa);
        touched.push_back(pa);
        for (BlockId b : touched)
            EXPECT_TRUE(oram.checkBlockInvariant(b));
    }
}

TEST(RingOram, AllStashesBounded)
{
    RingOram oram(smallConfig());
    Rng rng(3);
    for (int i = 0; i < 1500; ++i)
        oram.access(rng.range(1 << 12), rng.chance(0.3), i);
    for (unsigned level = 0; level < kHierLevels; ++level)
        EXPECT_FALSE(oram.stashOf(level).overflowed()) << level;
}

TEST(RingOram, PosMapSpacesShrinkByFanout)
{
    RingOram oram(smallConfig());
    const auto &hier = oram.hierarchy();
    EXPECT_EQ(hier.engine(kLevelData).params().numBlocks, 1u << 12);
    EXPECT_EQ(hier.engine(kLevelPos1).params().numBlocks, 1u << 8);
    EXPECT_EQ(hier.engine(kLevelPos2).params().numBlocks, 1u << 4);
}

TEST(RingOram, DistinctAddressSpaces)
{
    // The three trees must occupy disjoint DRAM regions.
    RingOram oram(smallConfig());
    const auto &hier = oram.hierarchy();
    const auto &data = hier.engine(kLevelData).layout();
    const auto &pos1 = hier.engine(kLevelPos1).layout();
    const auto &pos2 = hier.engine(kLevelPos2).layout();
    EXPECT_LE(data.endAddr(), pos1.base());
    EXPECT_LE(pos1.endAddr(), pos2.base());
}

TEST(RingOram, SameSeedSameTraffic)
{
    RingOram a(smallConfig());
    RingOram b(smallConfig());
    for (int i = 0; i < 50; ++i) {
        const auto pa = static_cast<BlockId>(i * 131 % (1 << 12));
        const auto plan_a = a.access(pa, false, 0);
        const auto plan_b = b.access(pa, false, 0);
        ASSERT_EQ(plan_a[0].readOps(), plan_b[0].readOps());
        ASSERT_EQ(plan_a[0].writeOps(), plan_b[0].writeOps());
    }
}

TEST(RingOram, AccessCountsInPaperBallpark)
{
    // §II: RingORAM converts one access into hundreds of DRAM accesses.
    ProtocolConfig config = smallConfig();
    config.ringZ = 16;
    config.ringS = 27;
    config.ringA = 20;
    config.numBlocks = 1 << 16;
    RingOram oram(config);
    Rng rng(4);
    std::uint64_t ops = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        const auto plans = oram.access(rng.range(1 << 16), false, 0);
        ops += plans[0].readOps() + plans[0].writeOps();
    }
    const double per_access = static_cast<double>(ops) / n;
    EXPECT_GT(per_access, 100.0);
    EXPECT_LT(per_access, 1500.0);
}

} // namespace
} // namespace palermo
