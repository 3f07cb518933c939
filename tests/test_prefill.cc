/**
 * @file
 * Differential test of the level-wise bulk loader (TreeStore::prefill,
 * driven through prefillEngine) against the per-block greedy loop it
 * replaced, kept here as the reference oracle: blocks in id order, each
 * in the deepest non-full bucket of its residence set, the rest in the
 * stash. The two start states must match node by node and slot by
 * slot, with the same touched set and the same stash order.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "oram/hierarchy.hh"
#include "oram/level_engine.hh"
#include "oram/path_engine.hh"
#include "oram/posmap.hh"

namespace palermo {
namespace {

constexpr std::size_t kStashCapacity = 64;

/** One block through the greedy loop; false if it fits nowhere. */
bool
plantOne(TreeStore &tree, BlockId block, Leaf leaf, bool siblings)
{
    const std::vector<NodeId> path = tree.params().pathNodes(leaf);
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
        if (tree.node(*it).tryPlace({block, 0, leaf}))
            return true;
        if (siblings && *it != 0) {
            const NodeId sibling = (*it % 2 == 1) ? *it + 1 : *it - 1;
            if (tree.node(sibling).tryPlace({block, 0, leaf}))
                return true;
        }
    }
    return false;
}

/** Reference oracle: the per-block prefill loop. */
void
referencePrefill(TreeStore &tree, Stash &stash, const PosMap &posmap,
                 bool siblings)
{
    for (BlockId block = 0; block < tree.params().numBlocks; ++block) {
        const Leaf leaf = posmap.get(block);
        if (!plantOne(tree, block, leaf, siblings))
            stash.put(block, leaf, 0);
    }
}

using SlotState = std::array<std::uint64_t, 3>;

std::vector<SlotState>
slotsOf(const TreeStore::ConstBucket &bucket)
{
    std::vector<SlotState> out;
    for (unsigned i = 0; i < bucket.slots(); ++i) {
        const BlockContent content = bucket.slot(i);
        out.push_back({content.block, content.payload, content.leaf});
    }
    return out;
}

std::vector<SlotState>
itemsOf(const Stash &stash)
{
    std::vector<SlotState> out;
    for (const StashItem &item : stash.items())
        out.push_back({item.block, item.entry.payload, item.entry.leaf});
    return out;
}

void
expectSameStart(const TreeStore &want, const Stash &want_stash,
                const TreeStore &got, const Stash &got_stash)
{
    ASSERT_EQ(got.touchedCount(), want.touchedCount());
    for (NodeId node = 0; node < want.params().numNodes; ++node) {
        const auto a = want.peek(node);
        const auto b = got.peek(node);
        ASSERT_EQ(static_cast<bool>(b), static_cast<bool>(a))
            << "touched flag of node " << node;
        if (!a)
            continue;
        ASSERT_EQ(b.accessed(), a.accessed()) << "node " << node;
        ASSERT_EQ(slotsOf(b), slotsOf(a)) << "slots of node " << node;
    }
    EXPECT_EQ(itemsOf(got_stash), itemsOf(want_stash));
    EXPECT_EQ(got_stash.highWatermark(), want_stash.highWatermark());
    EXPECT_EQ(got_stash.overflowed(), want_stash.overflowed());
}

/**
 * Prefill a tree both ways and compare; returns the stash occupancy so
 * callers can assert the case exercises (or avoids) root spill.
 */
std::size_t
checkAgainstOracle(const OramParams &params, bool siblings,
                   const PosMap &posmap)
{
    TreeStore want(params);
    Stash want_stash(kStashCapacity);
    referencePrefill(want, want_stash, posmap, siblings);
    EXPECT_EQ(want.totalValidBlocks() + want_stash.occupancy(),
              params.numBlocks);

    if (params.s == 0) {
        PathEngine engine(params, 0, 0, siblings, 1, kStashCapacity);
        prefillEngine(engine, posmap);
        expectSameStart(want, want_stash, engine.tree(), engine.stash());
    } else {
        RingEngine engine(params, 0, ReshuffleMode::Pre, 0, 1,
                          kStashCapacity);
        prefillEngine(engine, posmap);
        expectSameStart(want, want_stash, engine.tree(), engine.stash());
    }
    return want_stash.occupancy();
}

/** The PRF-default position map every protocol constructor uses. */
void
checkDefaultMap(const OramParams &params, bool siblings,
                unsigned group = 1)
{
    for (const std::uint64_t key : {1ull, 0x5eedull, 0xc0ffeeull}) {
        SCOPED_TRACE(key);
        const PosMap posmap(params.numBlocks, params.numLeaves, key, group);
        checkAgainstOracle(params, siblings, posmap);
    }
}

TEST(Prefill, RingTreeMatchesPerBlockLoop)
{
    checkDefaultMap(OramParams::ring(1 << 14, 16, 27, 20), false);
}

TEST(Prefill, PathTreeMatchesPerBlockLoop)
{
    checkDefaultMap(OramParams::path(1 << 14, 4), false);
}

TEST(Prefill, PageSiblingTreeMatchesPerBlockLoop)
{
    checkDefaultMap(OramParams::path(1 << 14, 2), true);
}

TEST(Prefill, LaoramFatTreeMatchesPerBlockLoop)
{
    OramParams params = OramParams::path(1 << 14, 4);
    applyFatTree(params);
    checkDefaultMap(params, false, 4);
}

TEST(Prefill, IrOramShrunkTreeMatchesPerBlockLoop)
{
    OramParams params = OramParams::path(1 << 14, 4);
    applyIrTreeShrink(params);
    checkDefaultMap(params, false);
}

TEST(Prefill, PrOramGroupedLeavesMatchPerBlockLoop)
{
    checkDefaultMap(OramParams::path(1 << 14, 4), false, 4);
}

TEST(Prefill, RootSpillReachesStashInBlockOrder)
{
    // Every third block forced onto leaf 0: its path overflows, the
    // spill climbs past the root, and the stash overflows its bound.
    for (const bool siblings : {false, true}) {
        SCOPED_TRACE(siblings);
        const OramParams params = siblings
            ? OramParams::path(1 << 9, 2)
            : OramParams::ring(1 << 9, 4, 5, 3);
        PosMap posmap(params.numBlocks, params.numLeaves, 9);
        for (BlockId block = 0; block < params.numBlocks; block += 3)
            posmap.set(block, 0);
        EXPECT_GT(checkAgainstOracle(params, siblings, posmap),
                  kStashCapacity);
    }
}

TEST(Prefill, SingleLeafTree)
{
    for (const OramParams &params :
         {OramParams::ring(12, 16, 27, 20), OramParams::path(3, 4)}) {
        ASSERT_EQ(params.levels, 1u);
        const PosMap posmap(params.numBlocks, params.numLeaves, 5);
        EXPECT_EQ(checkAgainstOracle(params, false, posmap), 0u);
    }
}

} // namespace
} // namespace palermo
