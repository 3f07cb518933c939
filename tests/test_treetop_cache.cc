/**
 * @file Unit tests for tree-top cache sizing: the level count
 * cachedLevelsFor() pins on-chip for a byte budget.
 */

#include <gtest/gtest.h>

#include "oram/hierarchy.hh"
#include "oram/ring_oram.hh"

namespace palermo {
namespace {

TEST(TreetopCache, ZeroBudgetCachesNothing)
{
    const OramParams params = OramParams::ring(1 << 12, 4, 5, 3);
    EXPECT_EQ(cachedLevelsFor(params, 0), 0u);
}

TEST(TreetopCache, BudgetForRootOnly)
{
    const OramParams params = OramParams::ring(1 << 12, 4, 5, 3);
    // Root: (4+5) slots * 64B + 64B meta = 640 bytes.
    EXPECT_EQ(cachedLevelsFor(params, 640), 1u);
    EXPECT_EQ(cachedLevelsFor(params, 639), 0u);
}

TEST(TreetopCache, LevelsGrowWithBudget)
{
    const OramParams params = OramParams::ring(1 << 14, 16, 27, 20);
    unsigned previous = 0;
    for (std::uint64_t budget : {1024ull, 16384ull, 262144ull}) {
        const unsigned levels = cachedLevelsFor(params, budget);
        EXPECT_GE(levels, previous);
        previous = levels;
    }
    EXPECT_GT(previous, 0u);
}

TEST(TreetopCache, NeverExceedsTreeLevels)
{
    const OramParams params = OramParams::ring(256, 4, 5, 3);
    EXPECT_LE(cachedLevelsFor(params, 1ull << 30), params.levels);
}

TEST(CachedLevelsFor, AgreesWithTreetopCache)
{
    // Each tree's engine pins exactly the levels its byte budget buys.
    for (std::uint64_t budget : {0ull, 4096ull, 1048576ull}) {
        ProtocolConfig config;
        config.numBlocks = 1 << 14;
        config.treetopBytes = {budget, budget, budget};
        config.prefill = false;
        RingOram oram(config);
        for (unsigned level = 0; level < kHierLevels; ++level) {
            const RingEngine &engine = oram.hierarchy().engine(level);
            EXPECT_EQ(engine.cachedLevels(),
                      cachedLevelsFor(engine.params(), budget))
                << "budget " << budget << " level " << level;
        }
    }
}

} // namespace
} // namespace palermo
