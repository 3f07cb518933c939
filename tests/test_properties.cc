/**
 * @file Property-based parameter sweeps (TEST_P): the protocol
 * invariants must hold across the whole (Z, S, A) / tree-size / prefetch
 * design space the paper sweeps in Fig. 14.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.hh"
#include "oram/level_engine.hh"
#include "oram/palermo.hh"
#include "oram/path_engine.hh"
#include "oram/posmap.hh"

namespace palermo {
namespace {

// ---------------------------------------------------------------------
// RingEngine properties over the paper's Fig. 14(a) (Z, S, A) space.
// ---------------------------------------------------------------------

using RingParams = std::tuple<unsigned, unsigned, unsigned, int>;
// (Z, S, A, mode)

class RingEngineProperty : public ::testing::TestWithParam<RingParams>
{
};

TEST_P(RingEngineProperty, ReadYourWritesAndInvariant)
{
    const auto [z, s, a, mode_int] = GetParam();
    const auto mode = static_cast<ReshuffleMode>(mode_int);
    const std::uint64_t blocks = 1 << 10;
    const OramParams params = OramParams::ring(blocks, z, s, a);
    RingEngine engine(params, 0, mode, 0, 42);
    PosMap pm(blocks, params.numLeaves, 7);
    Rng rng(9);
    std::map<BlockId, std::uint64_t> shadow;

    LevelPlan plan;
    for (int i = 0; i < 400; ++i) {
        const BlockId block = rng.range(blocks);
        const Leaf leaf = engine.inStash(block)
            ? rng.range(params.numLeaves) : pm.get(block);
        const Leaf new_leaf = rng.range(params.numLeaves);
        pm.set(block, new_leaf);
        engine.accessInto(block, leaf, new_leaf, &plan);
        if (rng.chance(0.5)) {
            const std::uint64_t value = rng.next();
            engine.setPayload(block, value);
            shadow[block] = value;
        } else {
            EXPECT_EQ(engine.payloadOf(block),
                      shadow.count(block) ? shadow[block] : 0u);
        }
    }
    for (const auto &[block, value] : shadow) {
        EXPECT_TRUE(engine.satisfiesInvariant(block, pm.get(block)))
            << "Z=" << z << " S=" << s << " A=" << a;
    }
    EXPECT_FALSE(engine.stash().overflowed());
}

INSTANTIATE_TEST_SUITE_P(
    ZsaSweep, RingEngineProperty,
    ::testing::Values(
        // The paper's valid (Z, S, A) points (Fig. 14a) in both modes.
        RingParams{4, 5, 3, 0}, RingParams{4, 5, 3, 1},
        RingParams{8, 12, 8, 0}, RingParams{8, 12, 8, 1},
        RingParams{16, 27, 20, 0}, RingParams{16, 27, 20, 1},
        RingParams{32, 56, 42, 0}, RingParams{32, 56, 42, 1}));

// ---------------------------------------------------------------------
// Tree-size sweep: invariants independent of height.
// ---------------------------------------------------------------------

class TreeSizeProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TreeSizeProperty, RingInvariantAcrossHeights)
{
    const std::uint64_t blocks = GetParam();
    const OramParams params = OramParams::ring(blocks, 4, 5, 3);
    RingEngine engine(params, 0, ReshuffleMode::Pre, 0, 1);
    PosMap pm(blocks, params.numLeaves, 2);
    Rng rng(3);
    std::vector<BlockId> touched;
    LevelPlan plan;
    for (int i = 0; i < 200; ++i) {
        const BlockId block = rng.range(blocks);
        const Leaf leaf = engine.inStash(block)
            ? rng.range(params.numLeaves) : pm.get(block);
        const Leaf new_leaf = rng.range(params.numLeaves);
        pm.set(block, new_leaf);
        engine.accessInto(block, leaf, new_leaf, &plan);
        touched.push_back(block);
    }
    for (BlockId block : touched)
        EXPECT_TRUE(engine.satisfiesInvariant(block, pm.get(block)));
}

INSTANTIATE_TEST_SUITE_P(Heights, TreeSizeProperty,
                         ::testing::Values(64, 256, 1 << 10, 1 << 14,
                                           1 << 18));

// ---------------------------------------------------------------------
// PathEngine properties over bucket size and sibling mode.
// ---------------------------------------------------------------------

using PathParams = std::tuple<unsigned, bool>;

class PathEngineProperty : public ::testing::TestWithParam<PathParams>
{
};

TEST_P(PathEngineProperty, ReadYourWritesAndBoundedStash)
{
    const auto [z, sibling] = GetParam();
    const std::uint64_t blocks = 1 << 10;
    const OramParams params = OramParams::path(blocks, z);
    PathEngine engine(params, 0, 0, sibling, 5);
    PosMap pm(blocks, params.numLeaves, 6);
    Rng rng(7);
    std::map<BlockId, std::uint64_t> shadow;
    LevelPlan plan;
    for (int i = 0; i < 400; ++i) {
        const BlockId block = rng.range(blocks);
        const Leaf leaf = pm.get(block);
        const Leaf new_leaf = rng.range(params.numLeaves);
        pm.set(block, new_leaf);
        engine.accessInto(block, leaf, new_leaf, &plan);
        if (rng.chance(0.5)) {
            const std::uint64_t value = rng.next();
            engine.setPayload(block, value);
            shadow[block] = value;
        } else {
            EXPECT_EQ(engine.payloadOf(block),
                      shadow.count(block) ? shadow[block] : 0u);
        }
    }
    EXPECT_FALSE(engine.stash().overflowed());
}

INSTANTIATE_TEST_SUITE_P(
    BucketSweep, PathEngineProperty,
    ::testing::Values(PathParams{2, false}, PathParams{2, true},
                      PathParams{4, false}, PathParams{4, true},
                      PathParams{8, false}));

// ---------------------------------------------------------------------
// Palermo protocol across prefetch lengths (Fig. 13's knob).
// ---------------------------------------------------------------------

class PalermoPrefetchProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PalermoPrefetchProperty, CorrectAndBounded)
{
    const unsigned pf = GetParam();
    ProtocolConfig config;
    config.numBlocks = 1 << 12;
    config.ringZ = 8;
    config.ringS = 12;
    config.ringA = 8;
    config.prefetchLen = pf;
    config.treetopBytes = {4096, 2048, 1024};
    PalermoOram oram(config);
    Rng rng(11);
    std::map<BlockId, std::uint64_t> shadow; // Group-granular.
    for (int i = 0; i < 500; ++i) {
        const BlockId pa = rng.range(1 << 12);
        if (oram.filterHit(pa, false, 0))
            continue;
        const auto ids = oram.decompose(pa);
        for (unsigned level = kHierLevels; level-- > 0;)
            oram.beginLevel(level, ids[level]);
        if (rng.chance(0.5)) {
            const std::uint64_t value = rng.next();
            oram.finishData(pa, true, value);
            shadow[ids[kLevelData]] = value;
        } else {
            const std::uint64_t got = oram.finishData(pa, false, 0);
            const BlockId group = ids[kLevelData];
            EXPECT_EQ(got, shadow.count(group) ? shadow[group] : 0u)
                << "pf=" << pf;
        }
    }
    for (unsigned level = 0; level < kHierLevels; ++level)
        EXPECT_FALSE(oram.stashOf(level).overflowed()) << "pf=" << pf;
}

INSTANTIATE_TEST_SUITE_P(PrefetchSweep, PalermoPrefetchProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------
// Eviction-leaf sequence: a permutation for every power-of-two size.
// ---------------------------------------------------------------------

class EvictionLeafProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EvictionLeafProperty, FullPermutationPerPeriod)
{
    const std::uint64_t leaves = GetParam();
    std::vector<bool> seen(leaves, false);
    for (std::uint64_t i = 0; i < leaves; ++i) {
        const Leaf leaf = evictionLeaf(i, leaves);
        ASSERT_LT(leaf, leaves);
        EXPECT_FALSE(seen[leaf]);
        seen[leaf] = true;
    }
    // The sequence repeats with the same period.
    EXPECT_EQ(evictionLeaf(leaves, leaves), evictionLeaf(0, leaves));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EvictionLeafProperty,
                         ::testing::Values(1, 2, 8, 64, 1024, 1 << 16));

} // namespace
} // namespace palermo
