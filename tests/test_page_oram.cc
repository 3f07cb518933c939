/** @file Unit tests for hierarchical PageORAM (PathOram's Page variant). */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "oram/path_oram.hh"

namespace palermo {
namespace {

ProtocolConfig
smallConfig()
{
    ProtocolConfig config;
    config.numBlocks = 1 << 12;
    config.pathZ = 4;
    config.pageZ = 2;
    config.treetopBytes = {4096, 2048, 1024};
    return config;
}

TEST(PageOram, ReadYourWrites)
{
    PathOram oram(smallConfig(), PathOram::Variant::Page);
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

TEST(PageOram, InvariantMaintained)
{
    PathOram oram(smallConfig(), PathOram::Variant::Page);
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

TEST(PageOram, StashesBounded)
{
    PathOram oram(smallConfig(), PathOram::Variant::Page);
    Rng rng(3);
    for (int i = 0; i < 1200; ++i)
        oram.access(rng.range(1 << 12), rng.chance(0.3), i);
    for (unsigned level = 0; level < kHierLevels; ++level)
        EXPECT_FALSE(oram.stashOf(level).overflowed());
}

TEST(PageOram, TrafficComparableToPathOram)
{
    // Smaller buckets offset the sibling reads: total traffic stays in
    // the same ballpark as PathORAM (the end-to-end win comes from
    // row-buffer locality, exercised in the integration/bench runs).
    ProtocolConfig config = smallConfig();
    config.numBlocks = 1 << 14;
    PathOram page(config, PathOram::Variant::Page);
    PathOram path(config);
    Rng rng(4);
    std::uint64_t page_ops = 0;
    std::uint64_t path_ops = 0;
    for (int i = 0; i < 100; ++i) {
        const BlockId pa = rng.range(1 << 14);
        const auto page_plans = page.access(pa, false, 0);
        const auto path_plans = path.access(pa, false, 0);
        page_ops += page_plans[0].readOps() + page_plans[0].writeOps();
        path_ops += path_plans[0].readOps() + path_plans[0].writeOps();
    }
    EXPECT_LT(page_ops, path_ops * 3 / 2);
    EXPECT_GT(page_ops, path_ops / 2);
}

TEST(PageOram, SiblingSlotsReadWithPairSharedHeaders)
{
    PathOram oram(smallConfig(), PathOram::Variant::Page);
    const auto plans = oram.access(1, false, 0);
    const LevelPlan &data = plans[0].levels.back();
    const PathEngine &engine = oram.hierarchy().engine(kLevelData);
    const auto &params = engine.params();
    const unsigned cached = engine.cachedLevels();
    // Metadata lines: one per on-path node below the tree-top cache.
    EXPECT_EQ(data.find(PhaseKind::LoadMeta)->ops.size(),
              params.levels - cached);
    // Slot reads cover siblings too (2 per level beyond the root).
    EXPECT_GT(data.find(PhaseKind::ReadPath)->ops.size(),
              static_cast<std::size_t>(params.levels - cached)
                  * params.z);
}

} // namespace
} // namespace palermo
