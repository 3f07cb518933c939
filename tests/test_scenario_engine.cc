/**
 * @file Scenario engine tests: accounting invariants of a shared
 * multi-tenant run (per-tenant sums match globals, accepted ==
 * completed after drain), the sanity gate on tampered outcomes,
 * byte-identity of the rendered document across repeat runs,
 * isolation baselines, closed-loop concurrency limits, and
 * trace-backed tenants (via the checked-in tiny.trace).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/engine.hh"
#include "scenario/scenario.hh"
#include "scenario/scenario_cli.hh"

namespace palermo {
namespace {

/** Small two-tenant scenario that runs in well under a second. */
ScenarioSpec
smallSpec()
{
    ScenarioSpec spec;
    spec.name = "unit";
    spec.blocks = 16384;
    spec.seed = 21;
    spec.duration = 30000;
    spec.warmupCompletions = 16;

    TenantSpec open;
    open.name = "open";
    open.rate = 0.7;
    open.dist = KeyDist::Zipf;
    open.writeFraction = 0.25;
    spec.tenants.push_back(open);

    TenantSpec closed;
    closed.name = "closed";
    closed.closedLoop = true;
    closed.concurrency = 3;
    closed.dist = KeyDist::Uniform;
    spec.tenants.push_back(closed);
    return spec;
}

ScenarioRunOptions
fastOptions()
{
    ScenarioRunOptions options;
    options.isolation = false;
    options.security = false;
    return options;
}

TEST(ScenarioEngineTest, AccountingInvariantsHold)
{
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(smallSpec(), fastOptions(), &outcome,
                            &error))
        << error;

    ASSERT_EQ(outcome.tenants.size(), 2u);
    EXPECT_GT(outcome.service.global.completed, 0u);
    EXPECT_EQ(outcome.service.global.accepted,
              outcome.service.global.completed);

    std::uint64_t sum = 0;
    for (const TenantOutcome &tenant : outcome.tenants) {
        EXPECT_EQ(tenant.scope.accepted, tenant.scope.completed)
            << tenant.name;
        EXPECT_GT(tenant.scope.completed, 0u) << tenant.name;
        sum += tenant.scope.completed;
    }
    EXPECT_EQ(sum, outcome.service.global.completed);

    std::vector<std::string> problems;
    EXPECT_TRUE(scenarioSanityCheck(outcome, &problems))
        << (problems.empty() ? "" : problems.front());
}

TEST(ScenarioEngineTest, SanityGateCatchesLostRequests)
{
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(smallSpec(), fastOptions(), &outcome,
                            &error))
        << error;

    outcome.service.global.accepted += 1; // Simulate a lost request.
    std::vector<std::string> problems;
    EXPECT_FALSE(scenarioSanityCheck(outcome, &problems));
    std::size_t lost = 0;
    std::size_t sums = 0;
    for (const std::string &problem : problems) {
        lost += problem.find("lost requests") != std::string::npos;
        sums += problem.find("per-tenant sums") != std::string::npos;
    }
    EXPECT_EQ(lost, 1u);
    // The tenant scopes no longer add up to the bumped global counter.
    EXPECT_EQ(sums, 1u);
    EXPECT_EQ(problems.size(), 2u);
}

TEST(ScenarioEngineTest, SanityGateCatchesClampedTailQuantiles)
{
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(smallSpec(), fastOptions(), &outcome,
                            &error))
        << error;
    std::vector<std::string> problems;
    ASSERT_TRUE(scenarioSanityCheck(outcome, &problems))
        << (problems.empty() ? "" : problems.front());

    // Simulate tails past the histograms' range: twice as many
    // million-cycle admissions as the run recorded, and a ninth more
    // million-cycle responses for the closed tenant. The quantiles they
    // push into the overflow bucket would print its constant.
    Histogram &queueing = outcome.service.global.queueingDelay;
    for (std::uint64_t i = 0, n = 2 * queueing.count(); i < n; ++i)
        queueing.sample(1e6);
    ASSERT_EQ(outcome.tenants[1].name, "closed");
    Histogram &latency = outcome.tenants[1].scope.latency;
    for (std::uint64_t i = 0, n = latency.count() / 9 + 1; i < n; ++i)
        latency.sample(1e6);

    EXPECT_FALSE(scenarioSanityCheck(outcome, &problems));
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_NE(problems[0].find("unit: queueing delay p50 and above"),
              std::string::npos)
        << problems[0];
    EXPECT_NE(problems[1].find("tenant closed: latency p95 and above"),
              std::string::npos)
        << problems[1];
    for (const std::string &problem : problems)
        EXPECT_NE(problem.find("overflow bucket"), std::string::npos);
}

TEST(ScenarioEngineTest, RepeatRunsAreByteIdentical)
{
    const ScenarioSpec spec = smallSpec();
    ScenarioOutcome a, b;
    std::string error;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &a, &error)) << error;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &b, &error)) << error;
    EXPECT_EQ(scenarioDocument(a, "unit"), scenarioDocument(b, "unit"));
}

TEST(ScenarioEngineTest, IsolationBaselinesMeasureSlowdown)
{
    ScenarioRunOptions options;
    options.security = false;
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(smallSpec(), options, &outcome, &error))
        << error;

    ASSERT_EQ(outcome.isolationRuns.size(), 2u);
    for (const TenantOutcome &tenant : outcome.tenants) {
        EXPECT_TRUE(tenant.isolated) << tenant.name;
        EXPECT_GT(tenant.isolatedMean, 0.0) << tenant.name;
        EXPECT_GT(tenant.slowdownMean, 0.0) << tenant.name;
        EXPECT_GT(tenant.slowdownP99, 0.0) << tenant.name;
    }
    EXPECT_GT(outcome.jainAchieved, 0.0);
    EXPECT_LE(outcome.jainAchieved, 1.0 + 1e-12);
    EXPECT_GT(outcome.jainSlowdown, 0.0);
}

TEST(ScenarioEngineTest, SeedChangesTheRun)
{
    ScenarioSpec spec = smallSpec();
    ScenarioOutcome a;
    std::string error;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &a, &error)) << error;
    spec.seed = 22;
    ScenarioOutcome b;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &b, &error)) << error;
    EXPECT_NE(scenarioDocument(a, "unit"), scenarioDocument(b, "unit"));
}

TEST(ScenarioEngineTest, TraceTenantReplaysRecordedKeys)
{
    ScenarioSpec spec = smallSpec();
    TenantSpec replay;
    replay.name = "replay";
    replay.source = SourceKind::Trace;
    replay.resolvedTracePath =
        std::string(PALERMO_SOURCE_DIR) + "/tools/traces/tiny.trace";
    replay.rate = 0.5;
    replay.dist = KeyDist::Zipf; // Ignored for traces.
    spec.tenants.push_back(replay);

    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &outcome, &error))
        << error;
    ASSERT_EQ(outcome.tenants.size(), 3u);
    EXPECT_GT(outcome.tenants[2].scope.completed, 0u);

    std::vector<std::string> problems;
    EXPECT_TRUE(scenarioSanityCheck(outcome, &problems))
        << (problems.empty() ? "" : problems.front());
}

TEST(ScenarioEngineTest, MissingTraceFileFailsCleanly)
{
    ScenarioSpec spec = smallSpec();
    TenantSpec replay;
    replay.name = "replay";
    replay.source = SourceKind::Trace;
    replay.resolvedTracePath = "/nonexistent/void.trace";
    spec.tenants.push_back(replay);

    ScenarioOutcome outcome;
    std::string error;
    EXPECT_FALSE(runScenario(spec, fastOptions(), &outcome, &error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace palermo
