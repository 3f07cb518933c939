/** @file Unit tests for access-plan structures and helpers. */

#include <gtest/gtest.h>

#include "oram/plan.hh"

namespace palermo {
namespace {

Phase
makePhase(PhaseKind kind, unsigned reads, unsigned writes)
{
    Phase phase{kind, {}};
    for (unsigned i = 0; i < reads; ++i)
        phase.ops.push_back({i * 64ull, false});
    for (unsigned i = 0; i < writes; ++i)
        phase.ops.push_back({(100 + i) * 64ull, true});
    return phase;
}

TEST(Phase, CountsReadsAndWrites)
{
    const Phase phase = makePhase(PhaseKind::ReadPath, 3, 2);
    EXPECT_EQ(phase.readCount(), 3u);
    EXPECT_EQ(phase.writeCount(), 2u);
}

TEST(Phase, EmptyPhase)
{
    const Phase phase{PhaseKind::LoadMeta, {}};
    EXPECT_EQ(phase.readCount(), 0u);
    EXPECT_EQ(phase.writeCount(), 0u);
}

TEST(LevelPlan, AggregatesOps)
{
    LevelPlan plan;
    plan.phases.push_back(makePhase(PhaseKind::LoadMeta, 5, 0));
    plan.phases.push_back(makePhase(PhaseKind::ReadPath, 7, 7));
    plan.phases.push_back(makePhase(PhaseKind::EvictWrite, 0, 9));
    EXPECT_EQ(plan.readOps(), 12u);
    EXPECT_EQ(plan.writeOps(), 16u);
}

TEST(LevelPlan, FindLocatesPhase)
{
    LevelPlan plan;
    plan.phases.push_back(makePhase(PhaseKind::LoadMeta, 1, 0));
    plan.phases.push_back(makePhase(PhaseKind::ReadPath, 2, 0));
    ASSERT_NE(plan.find(PhaseKind::ReadPath), nullptr);
    EXPECT_EQ(plan.find(PhaseKind::ReadPath)->ops.size(), 2u);
    EXPECT_EQ(plan.find(PhaseKind::EvictRead), nullptr);
}

TEST(RequestPlan, AggregatesAcrossLevels)
{
    RequestPlan request;
    for (unsigned level = 0; level < 3; ++level) {
        LevelPlan plan;
        plan.level = level;
        plan.phases.push_back(makePhase(PhaseKind::ReadPath, 4, 1));
        request.levels.push_back(std::move(plan));
    }
    EXPECT_EQ(request.readOps(), 12u);
    EXPECT_EQ(request.writeOps(), 3u);
}

} // namespace
} // namespace palermo
