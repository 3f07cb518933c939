/** @file Unit tests for the lazily allocated tree store. */

#include <gtest/gtest.h>

#include "oram/posmap.hh"
#include "oram/tree_store.hh"

namespace palermo {
namespace {

TEST(TreeStore, LazyMaterialization)
{
    TreeStore store(OramParams::ring(1 << 8, 4, 5, 3));
    EXPECT_EQ(store.touchedCount(), 0u);
    EXPECT_FALSE(store.touched(0));
    store.node(0);
    EXPECT_TRUE(store.touched(0));
    EXPECT_EQ(store.touchedCount(), 1u);
}

TEST(TreeStore, NodeCapacityFollowsLevel)
{
    OramParams params = OramParams::ring(1 << 8, 4, 5, 3);
    applyFatTree(params);
    TreeStore store(params);
    EXPECT_EQ(store.node(0).capacity(), params.capacityAt(0));
    const NodeId leaf = params.nodeAt(params.leafLevel(), 0);
    EXPECT_EQ(store.node(leaf).capacity(),
              params.capacityAt(params.leafLevel()));
}

TEST(TreeStore, PeekDoesNotMaterialize)
{
    TreeStore store(OramParams::ring(1 << 8, 4, 5, 3));
    EXPECT_FALSE(store.peek(3));
    EXPECT_EQ(store.touchedCount(), 0u);
    store.node(3);
    EXPECT_TRUE(store.peek(3));
}

TEST(TreeStore, StatePersists)
{
    TreeStore store(OramParams::ring(1 << 8, 4, 5, 3));
    store.node(5).resetWith({{42, 420, 0}});
    EXPECT_EQ(store.node(5).slotOf(42) >= 0, true);
    EXPECT_EQ(store.totalValidBlocks(), 1u);
}

TEST(TreeStore, HugeGeometryConstructibleLazily)
{
    // The paper's 16 GB space: 2^28 blocks. Lazy allocation means
    // touching one path costs only `levels` buckets of host memory.
    const OramParams params = OramParams::ring(1ull << 28, 16, 27, 20);
    TreeStore store(params);
    for (NodeId node : params.pathNodes(12345))
        store.node(node);
    EXPECT_EQ(store.touchedCount(), params.levels);
}

/**
 * Residency rule: `block` sits in bucket `home` of `store`. Placing it
 * into a second slot panics; once it has left (takeReal, then
 * takeAllValidInto) it may be placed again.
 */
void
checkResidencyRule(TreeStore &store, NodeId home, NodeId other,
                   BlockId block)
{
    ASSERT_NE(home, other);
    auto from = store.node(home);
    const int slot = from.slotOf(block);
    ASSERT_GE(slot, 0);
    const Leaf leaf = from.slot(static_cast<unsigned>(slot)).leaf;
    const BlockContent again{block, 1, leaf};
    store.node(other).resetWith({});
    EXPECT_DEATH(store.node(other).tryPlace(again), "already in a slot");
    EXPECT_DEATH(store.node(other).resetWith({again}), "already in a slot");
    EXPECT_DEATH(from.resetWith({again, again}), "already in a slot");

    EXPECT_EQ(from.takeReal(static_cast<unsigned>(slot)).leaf, leaf);
    store.node(other).resetWith({{block, 7, leaf}});
    EXPECT_EQ(store.node(other).slot(0).payload, 7u);

    const std::vector<BlockContent> drained =
        store.node(other).takeAllValid();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].payload, 7u);
    EXPECT_TRUE(store.node(home).tryPlace(drained[0]));
    EXPECT_GE(store.node(home).slotOf(block), 0);
}

TEST(TreeStore, ResidencyRuleOnLazilyGrownStore)
{
    const OramParams params = OramParams::ring(1 << 8, 4, 5, 3);
    TreeStore store(params);
    store.node(3).resetWith({{42, 420, 5}});
    checkResidencyRule(store, 3, params.nodeAt(params.leafLevel(), 0), 42);
}

TEST(TreeStore, ResidencyRuleOnPrefilledStore)
{
    const OramParams params = OramParams::ring(1 << 8, 4, 5, 3);
    TreeStore store(params);
    const PosMap posmap(params.numBlocks, params.numLeaves, 3);
    ASSERT_TRUE(store.prefill(posmap, false).empty());
    // Block 0 sits on its leaf's path; the root or that leaf is the
    // other bucket.
    const std::vector<NodeId> path = params.pathNodes(posmap.get(0));
    NodeId home = path.front();
    for (const NodeId node : path) {
        if (store.node(node).slotOf(0) >= 0)
            home = node;
    }
    checkResidencyRule(store, home,
                       home == path.front() ? path.back() : path.front(),
                       0);
}

} // namespace
} // namespace palermo
