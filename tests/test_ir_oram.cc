/** @file Unit tests for IR-ORAM (PosMap bypass + mid-tree shrink). */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "oram/ir_oram.hh"

namespace palermo {
namespace {

ProtocolConfig
smallConfig()
{
    ProtocolConfig config;
    config.numBlocks = 1 << 12;
    config.pathZ = 4;
    config.treetopBytes = {8192, 2048, 1024};
    return config;
}

TEST(IrOram, ImmediateReaccessBypassesPosmaps)
{
    IrOram oram(smallConfig());
    const auto first = oram.access(7, false, 0);
    EXPECT_EQ(first[0].levels.size(), kHierLevels);
    // Block 7 is on-chip (stash or tree-top); the next access skips the
    // recursive PosMap ORAMs.
    const auto second = oram.access(7, false, 0);
    EXPECT_EQ(second[0].levels.size(), 1u);
    EXPECT_EQ(second[0].levels[0].level, kLevelData);
    EXPECT_EQ(oram.irStats().posmapBypasses, 1u);
}

TEST(IrOram, ColdAccessTakesFullHierarchy)
{
    IrOram oram(smallConfig());
    const auto plans = oram.access(100, false, 0);
    EXPECT_EQ(plans[0].levels.size(), kHierLevels);
    EXPECT_EQ(oram.irStats().posmapBypasses, 0u);
}

TEST(IrOram, ReadYourWrites)
{
    IrOram oram(smallConfig());
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
            EXPECT_EQ(plans[0].value,
                      shadow.count(pa) ? shadow[pa] : 0u);
        }
    }
}

TEST(IrOram, InvariantMaintained)
{
    IrOram oram(smallConfig());
    Rng rng(2);
    std::vector<BlockId> touched;
    for (int i = 0; i < 250; ++i) {
        const BlockId pa = rng.range(1 << 12);
        oram.access(pa, true, pa);
        touched.push_back(pa);
        for (BlockId b : touched)
            EXPECT_TRUE(oram.checkBlockInvariant(b));
    }
}

TEST(IrOram, MidTreeBucketsShrunk)
{
    IrOram oram(smallConfig());
    const auto &params = oram.hierarchy().engine(kLevelData).params();
    EXPECT_LT(params.capacityAt(params.levels / 2), params.capacityAt(0));
}

TEST(IrOram, HotWorkloadBypassesOften)
{
    IrOram oram(smallConfig());
    Rng rng(3);
    // A tiny hot set keeps blocks on-chip between accesses.
    for (int i = 0; i < 400; ++i)
        oram.access(rng.range(8), false, 0);
    EXPECT_GT(oram.irStats().bypassRate(), 0.3);
}

TEST(IrOram, ColdScanRarelyBypasses)
{
    IrOram oram(smallConfig());
    for (BlockId pa = 0; pa < 400; ++pa)
        oram.access(pa * 7 % (1 << 12), false, 0);
    EXPECT_LT(oram.irStats().bypassRate(), 0.2);
}

TEST(IrOram, StashesBounded)
{
    IrOram oram(smallConfig());
    Rng rng(4);
    for (int i = 0; i < 1200; ++i)
        oram.access(rng.range(1 << 12), rng.chance(0.3), i);
    for (unsigned level = 0; level < kHierLevels; ++level)
        EXPECT_FALSE(oram.stashOf(level).overflowed());
}

} // namespace
} // namespace palermo
