/**
 * @file TenantDirectory tests: structural namespace isolation (no key
 * can resolve outside its tenant's slice), determinism in (seed,
 * tenant, key), and the equal-slice geometry the fairness story
 * depends on.
 */

#include <gtest/gtest.h>

#include <set>

#include "service/tenant.hh"

namespace palermo {
namespace {

TEST(TenantDirectoryTest, SingleTenantOwnsWholeSpaceFloor)
{
    const TenantDirectory dir(1, 4096, 1);
    EXPECT_EQ(dir.sliceSize(), 4096u);
    EXPECT_EQ(dir.sliceBase(0), 0u);
    EXPECT_TRUE(dir.owns(0, 0));
    EXPECT_TRUE(dir.owns(0, 4095));
}

TEST(TenantDirectoryTest, SlicesAreEqualSizedAndDisjoint)
{
    // 4096 / 3 = 1365 with remainder 1: every tenant gets exactly
    // 1365 lines and the top line stays unmapped.
    const TenantDirectory dir(3, 4096, 1);
    EXPECT_EQ(dir.sliceSize(), 1365u);
    EXPECT_EQ(dir.sliceBase(0), 0u);
    EXPECT_EQ(dir.sliceBase(1), 1365u);
    EXPECT_EQ(dir.sliceBase(2), 2730u);
    EXPECT_FALSE(dir.owns(0, 1365));
    EXPECT_TRUE(dir.owns(1, 1365));
    EXPECT_FALSE(dir.owns(2, 4095)); // Remainder line is unmapped.
}

TEST(TenantDirectoryTest, EveryKeyResolvesInsideItsSlice)
{
    const TenantDirectory dir(4, 1 << 12, 7);
    for (unsigned tenant = 0; tenant < 4; ++tenant) {
        for (std::uint64_t key = 0; key < 2000; ++key) {
            const BlockId block = dir.blockOf(tenant, key);
            EXPECT_TRUE(dir.owns(tenant, block))
                << "tenant " << tenant << " key " << key
                << " resolved to " << block;
        }
    }
}

TEST(TenantDirectoryTest, DeterministicInSeedTenantKey)
{
    const TenantDirectory a(4, 1 << 12, 42);
    const TenantDirectory b(4, 1 << 12, 42);
    const TenantDirectory c(4, 1 << 12, 43);
    bool seed_matters = false;
    for (std::uint64_t key = 0; key < 256; ++key) {
        EXPECT_EQ(a.blockOf(1, key), b.blockOf(1, key));
        if (a.blockOf(1, key) != c.blockOf(1, key))
            seed_matters = true;
    }
    EXPECT_TRUE(seed_matters) << "seed does not key the layout";
}

TEST(TenantDirectoryTest, TenantsHashTheSameKeyDifferently)
{
    // Domain separation: identical key streams from different tenants
    // must not produce slice-relative collisions in lockstep.
    const TenantDirectory dir(2, 1 << 12, 5);
    unsigned differing = 0;
    for (std::uint64_t key = 0; key < 256; ++key) {
        const std::uint64_t off0 = dir.blockOf(0, key) - dir.sliceBase(0);
        const std::uint64_t off1 = dir.blockOf(1, key) - dir.sliceBase(1);
        if (off0 != off1)
            ++differing;
    }
    EXPECT_GT(differing, 200u);
}

TEST(TenantDirectoryTest, KeysSpreadAcrossTheSlice)
{
    const TenantDirectory dir(2, 1 << 12, 9);
    std::set<BlockId> blocks;
    for (std::uint64_t key = 0; key < 1000; ++key)
        blocks.insert(dir.blockOf(0, key));
    // A PRF over a 2048-line slice must not funnel 1000 keys into a
    // handful of lines.
    EXPECT_GT(blocks.size(), 500u);
}

} // namespace
} // namespace palermo
