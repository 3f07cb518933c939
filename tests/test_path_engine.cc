/** @file Unit tests for the PathORAM protocol engine (and PageORAM mode). */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "oram/path_engine.hh"
#include "oram/posmap.hh"

namespace palermo {
namespace {

struct Harness
{
    OramParams params;
    PathEngine engine;
    PosMap pm;
    Rng rng;
    std::map<BlockId, std::uint64_t> shadow;

    Harness(std::uint64_t blocks, unsigned z, bool sibling = false,
            unsigned cached = 0, std::size_t stash_cap = 256)
        : params(OramParams::path(blocks, z)),
          engine(params, 0, cached, sibling, 21, stash_cap),
          pm(blocks, params.numLeaves, 3), rng(17)
    {
    }

    LevelPlan access(BlockId block)
    {
        const Leaf leaf = pm.get(block);
        const Leaf new_leaf = rng.range(params.numLeaves);
        pm.set(block, new_leaf);
        LevelPlan plan;
        engine.accessInto(block, leaf, new_leaf, &plan);
        return plan;
    }

    std::uint64_t read(BlockId block)
    {
        access(block);
        return engine.payloadOf(block);
    }

    void write(BlockId block, std::uint64_t value)
    {
        access(block);
        engine.setPayload(block, value);
        shadow[block] = value;
    }
};

TEST(PathEngine, FreshReadReturnsZero)
{
    Harness h(256, 4);
    EXPECT_EQ(h.read(10), 0u);
}

TEST(PathEngine, ReadYourWrites)
{
    Harness h(256, 4);
    Rng rng(23);
    for (int i = 0; i < 600; ++i) {
        const BlockId block = rng.range(256);
        if (rng.chance(0.5)) {
            h.write(block, rng.next());
        } else {
            const std::uint64_t expect =
                h.shadow.count(block) ? h.shadow[block] : 0;
            EXPECT_EQ(h.read(block), expect) << "iter " << i;
        }
    }
}

TEST(PathEngine, InvariantHoldsThroughout)
{
    Harness h(256, 4);
    Rng rng(29);
    for (int i = 0; i < 300; ++i) {
        h.write(rng.range(256), i);
        for (const auto &[b, v] : h.shadow)
            EXPECT_TRUE(h.engine.satisfiesInvariant(b, h.pm.get(b)));
    }
}

TEST(PathEngine, StashBounded)
{
    Harness h(1 << 12, 4);
    Rng rng(31);
    for (int i = 0; i < 2000; ++i)
        h.access(rng.range(1 << 12));
    EXPECT_FALSE(h.engine.stash().overflowed());
}

TEST(PathEngine, PhaseStructure)
{
    Harness h(256, 4);
    const LevelPlan plan = h.access(1);
    ASSERT_EQ(plan.phases.size(), 3u);
    EXPECT_EQ(plan.phases[0].kind, PhaseKind::LoadMeta);
    EXPECT_EQ(plan.phases[1].kind, PhaseKind::ReadPath);
    EXPECT_EQ(plan.phases[2].kind, PhaseKind::EvictWrite);
    EXPECT_TRUE(plan.hasEvict); // PathORAM evicts every access.
}

TEST(PathEngine, WholeBucketsRead)
{
    Harness h(256, 4);
    const LevelPlan plan = h.access(1);
    // Z slots per path node.
    EXPECT_EQ(plan.find(PhaseKind::ReadPath)->ops.size(),
              h.params.levels * 4);
    // Z writes + 1 meta write per node.
    EXPECT_EQ(plan.find(PhaseKind::EvictWrite)->ops.size(),
              h.params.levels * 5);
}

TEST(PathEngine, MoreTrafficThanRingPerAccess)
{
    // The §III-E comparison direction: PathORAM moves whole buckets.
    Harness h(1 << 10, 4);
    const LevelPlan plan = h.access(1);
    EXPECT_GT(plan.find(PhaseKind::ReadPath)->readCount(),
              h.params.levels); // Ring reads one slot per node.
}

TEST(PathEngine, DummyAccessServesNothing)
{
    Harness h(256, 4);
    h.write(5, 55);
    const std::size_t occ_before = h.engine.stash().occupancy();
    LevelPlan plan;
    h.engine.dummyAccessInto(3, &plan);
    EXPECT_FALSE(plan.freshBlock);
    // A dummy drains (or keeps) the stash; it never grows it.
    EXPECT_LE(h.engine.stash().occupancy(), occ_before);
    EXPECT_EQ(h.read(5), 55u);
}

TEST(PathEngine, EvictionSinksBlocksOutOfStash)
{
    Harness h(256, 4);
    for (BlockId b = 0; b < 32; ++b)
        h.write(b, b);
    // Repeated accesses evict along fresh paths; the stash must not
    // retain everything.
    EXPECT_LT(h.engine.stash().occupancy(), 32u);
}

TEST(PathEngine, TreeTopCacheSuppressesOps)
{
    Harness cached(256, 4, false, 3);
    Harness uncached(256, 4, false, 0);
    EXPECT_LT(cached.access(1).readOps(), uncached.access(1).readOps());
}

TEST(PageMode, AccessSetIncludesSiblings)
{
    Harness page(256, 2, /*sibling=*/true);
    Harness plain(256, 2, false);
    const LevelPlan page_plan = page.access(1);
    const LevelPlan plain_plan = plain.access(1);
    // Slot reads cover path + siblings = 2L-1 buckets vs L buckets.
    EXPECT_EQ(page_plan.find(PhaseKind::ReadPath)->ops.size(),
              (2 * page.params.levels - 1) * 2);
    EXPECT_EQ(plain_plan.find(PhaseKind::ReadPath)->ops.size(),
              plain.params.levels * 2);
    // Pair-shared headers: metadata lines follow the path only.
    EXPECT_EQ(page_plan.find(PhaseKind::LoadMeta)->ops.size(),
              page.params.levels);
}

TEST(PageMode, ReadYourWrites)
{
    Harness h(256, 2, true);
    Rng rng(37);
    for (int i = 0; i < 500; ++i) {
        const BlockId block = rng.range(256);
        if (rng.chance(0.5)) {
            h.write(block, rng.next());
        } else {
            const std::uint64_t expect =
                h.shadow.count(block) ? h.shadow[block] : 0;
            EXPECT_EQ(h.read(block), expect) << "iter " << i;
        }
    }
}

TEST(PageMode, InvariantWithSiblingResidence)
{
    Harness h(256, 2, true);
    Rng rng(41);
    for (int i = 0; i < 300; ++i) {
        h.write(rng.range(256), i);
        for (const auto &[b, v] : h.shadow)
            EXPECT_TRUE(h.engine.satisfiesInvariant(b, h.pm.get(b)));
    }
}

TEST(PageMode, SmallerBucketsStillBounded)
{
    Harness h(1 << 12, 2, true, 0, 256);
    Rng rng(43);
    for (int i = 0; i < 1500; ++i)
        h.access(rng.range(1 << 12));
    EXPECT_FALSE(h.engine.stash().overflowed());
}

} // namespace
} // namespace palermo
