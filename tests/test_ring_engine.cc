/** @file Unit tests for the RingORAM protocol engine (both modes). */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "oram/level_engine.hh"
#include "oram/posmap.hh"

namespace palermo {
namespace {

/** Drives one engine with an external authoritative posmap. */
struct Harness
{
    OramParams params;
    RingEngine engine;
    PosMap pm;
    Rng rng;
    std::map<BlockId, std::uint64_t> shadow;

    Harness(std::uint64_t blocks, unsigned z, unsigned s, unsigned a,
            ReshuffleMode mode, unsigned cached = 0)
        : params(OramParams::ring(blocks, z, s, a)),
          engine(params, 0, mode, cached, 42),
          pm(blocks, params.numLeaves, 7), rng(13)
    {
    }

    LevelPlan access(BlockId block)
    {
        Leaf leaf;
        if (engine.inStash(block))
            leaf = rng.range(params.numLeaves);
        else
            leaf = pm.get(block);
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

TEST(RingEngine, FreshReadReturnsZero)
{
    Harness h(256, 4, 5, 3, ReshuffleMode::Post);
    EXPECT_EQ(h.read(10), 0u);
}

TEST(RingEngine, ReadYourWrites)
{
    for (ReshuffleMode mode : {ReshuffleMode::Post, ReshuffleMode::Pre}) {
        Harness h(256, 4, 5, 3, mode);
        Rng rng(99);
        for (int i = 0; i < 600; ++i) {
            const BlockId block = rng.range(256);
            if (rng.chance(0.5)) {
                h.write(block, rng.next());
            } else {
                const std::uint64_t expect = h.shadow.count(block)
                    ? h.shadow[block] : 0;
                EXPECT_EQ(h.read(block), expect)
                    << "mode " << static_cast<int>(mode) << " iter " << i;
            }
        }
    }
}

TEST(RingEngine, InvariantHoldsThroughout)
{
    for (ReshuffleMode mode : {ReshuffleMode::Post, ReshuffleMode::Pre}) {
        Harness h(256, 4, 5, 3, mode);
        Rng rng(5);
        for (int i = 0; i < 400; ++i) {
            const BlockId block = rng.range(256);
            h.write(block, block + 1);
            for (const auto &[b, v] : h.shadow) {
                EXPECT_TRUE(h.engine.satisfiesInvariant(b, h.pm.get(b)))
                    << "block " << b << " lost";
            }
        }
    }
}

TEST(RingEngine, StashStaysBounded)
{
    Harness h(1 << 12, 16, 27, 20, ReshuffleMode::Pre);
    Rng rng(6);
    for (int i = 0; i < 2000; ++i)
        h.access(rng.range(1 << 12));
    EXPECT_FALSE(h.engine.stash().overflowed());
    EXPECT_LT(h.engine.stash().highWatermark(), 200u);
}

TEST(RingEngine, PostModePhaseOrder)
{
    Harness h(256, 4, 5, 3, ReshuffleMode::Post);
    const LevelPlan plan = h.access(1);
    ASSERT_GE(plan.phases.size(), 3u);
    EXPECT_EQ(plan.phases[0].kind, PhaseKind::LoadMeta);
    EXPECT_EQ(plan.phases[1].kind, PhaseKind::ReadPath);
    EXPECT_EQ(plan.phases[2].kind, PhaseKind::ResetRead);
}

TEST(RingEngine, PreModePhaseOrder)
{
    Harness h(256, 4, 5, 3, ReshuffleMode::Pre);
    const LevelPlan plan = h.access(1);
    ASSERT_GE(plan.phases.size(), 4u);
    EXPECT_EQ(plan.phases[0].kind, PhaseKind::LoadMeta);
    EXPECT_EQ(plan.phases[1].kind, PhaseKind::ResetRead);
    EXPECT_EQ(plan.phases[2].kind, PhaseKind::ResetWrite);
    EXPECT_EQ(plan.phases[3].kind, PhaseKind::ReadPath);
}

TEST(RingEngine, LoadMetaCoversPath)
{
    Harness h(256, 4, 5, 3, ReshuffleMode::Post);
    const LevelPlan plan = h.access(1);
    EXPECT_EQ(plan.find(PhaseKind::LoadMeta)->ops.size(),
              h.params.levels);
}

TEST(RingEngine, ReadPathOneSlotPerNodePlusMetaUpdate)
{
    Harness h(256, 4, 5, 3, ReshuffleMode::Post);
    const LevelPlan plan = h.access(1);
    const Phase *rp = plan.find(PhaseKind::ReadPath);
    ASSERT_NE(rp, nullptr);
    // One slot read + one metadata update write per path node.
    EXPECT_EQ(rp->readCount(), h.params.levels);
    EXPECT_EQ(rp->writeCount(), h.params.levels);
}

TEST(RingEngine, EvictionEveryA)
{
    Harness h(256, 4, 5, 4, ReshuffleMode::Post);
    int evictions = 0;
    for (int i = 1; i <= 40; ++i) {
        const LevelPlan plan = h.access(
            static_cast<BlockId>(i * 37 % 256));
        if (plan.hasEvict) {
            ++evictions;
            EXPECT_EQ(i % 4, 0) << "eviction off schedule";
            const Phase *epw = plan.find(PhaseKind::EvictWrite);
            ASSERT_NE(epw, nullptr);
            // Full bucket rewrite + meta per path node.
            EXPECT_EQ(epw->ops.size(),
                      h.params.levels * (h.params.slotsAt(0) + 1));
        }
    }
    EXPECT_EQ(evictions, 10);
}

TEST(RingEngine, DummiesNeverExhausted)
{
    // Hammer a single block so its path buckets hit the reshuffle
    // threshold constantly; touchDummy must never fail (engine panics
    // if the protocol is violated).
    for (ReshuffleMode mode : {ReshuffleMode::Post, ReshuffleMode::Pre}) {
        Harness h(256, 4, 5, 3, mode);
        for (int i = 0; i < 300; ++i)
            h.access(7);
        SUCCEED();
    }
}

TEST(RingEngine, PreModeResetsEarlier)
{
    // In Pre mode a bucket resets at S-1 touches, so access counters
    // stay strictly below S; in Post mode they can reach S.
    Harness h(64, 4, 5, 1000, ReshuffleMode::Pre);
    for (int i = 0; i < 200; ++i)
        h.access(static_cast<BlockId>(i % 64));
    for (NodeId node = 0; node < h.params.numNodes; ++node) {
        if (const auto meta = h.engine.tree().peek(node)) {
            EXPECT_LT(meta.accessed(), h.params.s);
        }
    }
}

TEST(RingEngine, ServedFromStashOnPendingBlock)
{
    Harness h(256, 4, 5, 1000, ReshuffleMode::Pre);
    const LevelPlan first = h.access(9);
    EXPECT_FALSE(first.servedFromStash);
    ASSERT_TRUE(h.engine.inStash(9));
    const LevelPlan second = h.access(9);
    EXPECT_TRUE(second.servedFromStash);
}

TEST(RingEngine, FreshBlockFlag)
{
    Harness h(256, 4, 5, 3, ReshuffleMode::Post);
    EXPECT_TRUE(h.access(3).freshBlock);
    // Still in stash: pending serve, not fresh.
    EXPECT_FALSE(h.access(3).freshBlock);
}

TEST(RingEngine, TreeTopCacheSuppressesOps)
{
    Harness cached(256, 4, 5, 3, ReshuffleMode::Post, /*cached=*/3);
    Harness uncached(256, 4, 5, 3, ReshuffleMode::Post, 0);
    const LevelPlan with_cache = cached.access(1);
    const LevelPlan without = uncached.access(1);
    EXPECT_EQ(with_cache.find(PhaseKind::LoadMeta)->ops.size(),
              cached.params.levels - 3);
    EXPECT_LT(with_cache.readOps(), without.readOps());
}

TEST(RingEngine, ResetBucketReadsArePadded)
{
    // ResetBucket always reads exactly Z offsets per resetting node so
    // occupancy is not observable on the bus.
    Harness h(64, 4, 5, 1000, ReshuffleMode::Pre);
    for (int i = 0; i < 200; ++i) {
        const LevelPlan plan = h.access(static_cast<BlockId>(i % 64));
        const Phase *err = plan.find(PhaseKind::ResetRead);
        ASSERT_NE(err, nullptr);
        EXPECT_EQ(err->ops.size() % h.params.z, 0u);
    }
}

TEST(RingEngine, StatsAccumulate)
{
    Harness h(256, 4, 5, 4, ReshuffleMode::Post);
    for (int i = 0; i < 40; ++i)
        h.access(static_cast<BlockId>(i % 17));
    const EngineStats &stats = h.engine.stats();
    EXPECT_EQ(stats.accesses, 40u);
    EXPECT_EQ(stats.evictions, 10u);
    EXPECT_GT(stats.freshBlocks, 0u);
}

} // namespace
} // namespace palermo
