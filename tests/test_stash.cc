/** @file Unit tests for the bounded ORAM stash. */

#include <gtest/gtest.h>

#include "oram/oram_params.hh"
#include "oram/stash.hh"

namespace palermo {
namespace {

TEST(Stash, PutTakeRoundTrip)
{
    Stash stash(16);
    stash.put(5, 3, 500);
    ASSERT_TRUE(stash.contains(5));
    EXPECT_EQ(stash.occupancy(), 1u);
    const StashEntry entry = stash.take(5);
    EXPECT_EQ(entry.leaf, 3u);
    EXPECT_EQ(entry.payload, 500u);
    EXPECT_FALSE(stash.contains(5));
}

TEST(Stash, PutOverwrites)
{
    Stash stash(16);
    stash.put(5, 3, 500);
    stash.put(5, 7, 700);
    EXPECT_EQ(stash.occupancy(), 1u);
    EXPECT_EQ(stash.entry(5).leaf, 7u);
    EXPECT_EQ(stash.entry(5).payload, 700u);
}

TEST(Stash, RemapChangesLeafOnly)
{
    Stash stash(16);
    stash.put(5, 3, 500);
    stash.remap(5, 9);
    EXPECT_EQ(stash.entry(5).leaf, 9u);
    EXPECT_EQ(stash.entry(5).payload, 500u);
}

TEST(Stash, WatermarksTrackPeaks)
{
    Stash stash(16);
    for (BlockId b = 0; b < 10; ++b)
        stash.put(b, 0, 0);
    for (BlockId b = 0; b < 8; ++b)
        stash.take(b);
    EXPECT_EQ(stash.occupancy(), 2u);
    EXPECT_EQ(stash.highWatermark(), 10u);
    EXPECT_EQ(stash.windowWatermark(), 10u);
    stash.resetWindowWatermark();
    EXPECT_EQ(stash.windowWatermark(), 2u);
    EXPECT_EQ(stash.highWatermark(), 10u);
}

TEST(Stash, OverflowFlag)
{
    Stash stash(4);
    for (BlockId b = 0; b < 4; ++b)
        stash.put(b, 0, 0);
    EXPECT_FALSE(stash.overflowed());
    stash.put(4, 0, 0);
    EXPECT_TRUE(stash.overflowed());
}

TEST(Stash, EligibleForFiltersByPath)
{
    const OramParams params = OramParams::ring(1 << 8, 4, 5, 3);
    Stash stash(64);
    // Block mapped to leaf 0 is eligible for every node on path(0).
    stash.put(1, 0, 0);
    // Block mapped to the last leaf shares only the root with path(0).
    stash.put(2, params.numLeaves - 1, 0);

    std::vector<BlockId> at_root;
    stash.eligibleForInto(0, params, 10, kInvalid, &at_root);
    EXPECT_EQ(at_root.size(), 2u);

    const NodeId leaf0 = params.nodeAt(params.leafLevel(), 0);
    std::vector<BlockId> at_leaf;
    stash.eligibleForInto(leaf0, params, 10, kInvalid, &at_leaf);
    ASSERT_EQ(at_leaf.size(), 1u);
    EXPECT_EQ(at_leaf[0], 1u);
}

TEST(Stash, EligibleForHonorsMaxAndExclude)
{
    const OramParams params = OramParams::ring(1 << 8, 4, 5, 3);
    Stash stash(64);
    for (BlockId b = 0; b < 8; ++b)
        stash.put(b, 0, 0);
    std::vector<BlockId> out;
    stash.eligibleForInto(0, params, 3, kInvalid, &out);
    EXPECT_EQ(out.size(), 3u);
    // The buffer is cleared first, so reuse does not accumulate.
    std::vector<BlockId> without_5 = out;
    stash.eligibleForInto(0, params, 8, 5, &without_5);
    EXPECT_EQ(without_5.size(), 7u);
    for (BlockId b : without_5)
        EXPECT_NE(b, 5u);
}

} // namespace
} // namespace palermo
