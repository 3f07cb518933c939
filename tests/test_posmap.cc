/** @file Unit tests for the lazy position map. */

#include <gtest/gtest.h>

#include <map>

#include "crypto/prf.hh"
#include "oram/posmap.hh"

namespace palermo {
namespace {

TEST(PosMap, DefaultsAreDeterministic)
{
    PosMap a(1024, 64, 7);
    PosMap b(1024, 64, 7);
    for (BlockId block = 0; block < 256; ++block)
        EXPECT_EQ(a.get(block), b.get(block));
}

TEST(PosMap, DefaultsInRange)
{
    PosMap pm(4096, 128, 9);
    for (BlockId block = 0; block < 4096; block += 7)
        EXPECT_LT(pm.get(block), 128u);
}

TEST(PosMap, DefaultsRoughlyUniform)
{
    PosMap pm(1 << 16, 16, 11);
    std::map<Leaf, int> counts;
    for (BlockId block = 0; block < (1 << 14); ++block)
        ++counts[pm.get(block)];
    EXPECT_EQ(counts.size(), 16u);
    for (const auto &[leaf, count] : counts)
        EXPECT_NEAR(count, 1024, 300);
}

TEST(PosMap, SetOverridesDefault)
{
    PosMap pm(1024, 64, 7);
    const Leaf before = pm.get(10);
    pm.set(10, (before + 1) % 64);
    EXPECT_EQ(pm.get(10), (before + 1) % 64);
}

TEST(PosMap, StoredDefaultsAreThePrf)
{
    // A dense map stores every block's default at construction; each
    // must be the leaf the PRF gives the block's group.
    for (const unsigned group : {1u, 4u}) {
        SCOPED_TRACE(group);
        constexpr std::uint64_t kBlocks = 4099;
        constexpr std::uint64_t kLeaves = 512;
        const PosMap pm(kBlocks, kLeaves, 13, group);
        const Prf prf(13);
        for (BlockId block = 0; block < kBlocks; ++block)
            ASSERT_EQ(pm.get(block), prf.evalMod(block / group, kLeaves))
                << "block " << block;
    }
}

TEST(PosMap, KeySeparation)
{
    PosMap a(1024, 64, 1);
    PosMap b(1024, 64, 2);
    int same = 0;
    for (BlockId block = 0; block < 256; ++block)
        same += (a.get(block) == b.get(block));
    EXPECT_LT(same, 32); // ~1/64 expected collisions.
}

TEST(PosMap, GroupDefaultsShareLeaf)
{
    // PrORAM: consecutive blocks in a prefetch group default to one leaf.
    PosMap pm(1024, 64, 7, /*default_group=*/4);
    for (BlockId group = 0; group < 16; ++group) {
        const Leaf leaf = pm.get(group * 4);
        for (unsigned i = 1; i < 4; ++i)
            EXPECT_EQ(pm.get(group * 4 + i), leaf);
    }
}

TEST(PosMap, GroupOverridesAreIndependent)
{
    PosMap pm(1024, 64, 7, 4);
    const Leaf shared = pm.get(0);
    pm.set(0, (shared + 1) % 64);
    EXPECT_EQ(pm.get(1), shared); // Sibling unchanged.
}

} // namespace
} // namespace palermo
