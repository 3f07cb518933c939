/**
 * @file
 * Differential test of the leaf-order bulk loader (TreeStore::prefill,
 * driven through prefillEngine) against the per-block greedy loop that
 * defines the start state, kept here as the reference oracle: blocks in
 * id order, each in the deepest non-full bucket of its residence set,
 * the rest in the stash. The two start states must match node by node
 * and slot by slot, with the same touched set and the same stash order.
 * The 2^14-block trees fit in one subtree of the loader; the 2^18-block
 * ones span four, and the levels above them.
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

/** Blocks of the multi-subtree cases: four subtrees of the loader. */
constexpr std::uint64_t kFourSubtrees = 4 * TreeStore::kSubtreeBlocks;

TEST(Prefill, RingTreeOfFourSubtreesMatchesPerBlockLoop)
{
    const OramParams params = OramParams::ring(kFourSubtrees, 16, 27, 20);
    const PosMap posmap(params.numBlocks, params.numLeaves, 0x5eed);
    checkAgainstOracle(params, false, posmap);
}

TEST(Prefill, PageSiblingPairsAcrossSubtreeEdges)
{
    // Two blocks per leaf: the subtree edge sits after a quarter of the
    // leaves. Blocks crowd the leaves on both sides of it, so both
    // paths overflow to the subtree roots, where the two roots are one
    // sibling pair, and on past the root.
    const OramParams params = OramParams::path(kFourSubtrees, 2);
    const Leaf edge = params.numLeaves / 4;
    PosMap posmap(params.numBlocks, params.numLeaves, 0xc0ffee);
    for (BlockId block = 0; block < params.numBlocks; block += 32) {
        posmap.set(block, edge - 1);
        posmap.set(block + 16, edge);
    }
    EXPECT_GT(checkAgainstOracle(params, true, posmap), 0u);
}

TEST(Prefill, RootSpillAcrossSubtreesReachesStashInBlockOrder)
{
    // Blocks forced onto the first and the last leaf, in the first and
    // the last subtree, interleaved by id: the root merges both spills.
    const OramParams params = OramParams::ring(kFourSubtrees, 4, 5, 3);
    PosMap posmap(params.numBlocks, params.numLeaves, 9);
    for (BlockId block = 0; block < params.numBlocks; block += 64) {
        posmap.set(block, 0);
        posmap.set(block + 32, params.numLeaves - 1);
    }
    EXPECT_GT(checkAgainstOracle(params, false, posmap), kStashCapacity);

    // A spilled block sits in no slot, so its record lets it enter one
    // (the residency rule panics otherwise).
    RingEngine engine(params, 0, ReshuffleMode::Pre, 0, 1, kStashCapacity);
    prefillEngine(engine, posmap);
    for (const StashItem &item : engine.stash().items()) {
        engine.tree().node(0).resetWith(
            {{item.block, item.entry.payload, item.entry.leaf}});
        EXPECT_EQ(engine.tree().node(0).slotOf(item.block), 0);
    }
}

TEST(Prefill, PrOramGroupedLeavesAcrossSubtrees)
{
    const OramParams params = OramParams::path(kFourSubtrees, 4);
    const PosMap posmap(params.numBlocks, params.numLeaves, 1, 4);
    checkAgainstOracle(params, false, posmap);
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
