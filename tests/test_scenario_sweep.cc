/**
 * @file Load-sweep tests for palermo_scenario --sweep: factor-list
 * parsing (and the rejection of a removed flag), scaledSpec (rates,
 * rate curves, concurrencies, and the non-integer concurrency error),
 * the load=1 point against the unswept run, an open-loop point far
 * below saturation, a scaled closed-loop point, and byte-identity of
 * the sweep document across repeat runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/engine.hh"
#include "scenario/scenario.hh"
#include "scenario/scenario_cli.hh"
#include "service/service_metrics.hh"
#include "sim/metrics_json.hh"

namespace palermo {
namespace {

bool
parse(const std::vector<const char *> &args, ScenarioCliOptions *options,
      std::string *error)
{
    return parseScenarioCliArgs(static_cast<int>(args.size()),
                                args.data(), options, error);
}

TEST(ScenarioSweepTest, ParsesLoadFactors)
{
    ScenarioCliOptions options;
    std::string error;
    ASSERT_TRUE(parse({"s.json", "--sweep", "0.5,1,2.25"}, &options,
                      &error))
        << error;
    ASSERT_EQ(options.sweep.size(), 3u);
    EXPECT_DOUBLE_EQ(options.sweep[0], 0.5);
    EXPECT_DOUBLE_EQ(options.sweep[2], 2.25);

    ASSERT_TRUE(parse({"s.json"}, &options, &error)) << error;
    EXPECT_TRUE(options.sweep.empty());
}

TEST(ScenarioSweepTest, RejectsMalformedFactors)
{
    ScenarioCliOptions options;
    std::string error;
    for (const char *bad : {"", "0", "-1", "2,", ",2", "1,,2", "fast",
                            "inf", "nan", "1,1", "2x"}) {
        error.clear();
        EXPECT_FALSE(parse({"--sweep", bad}, &options, &error)) << bad;
        EXPECT_NE(error.find("--sweep"), std::string::npos) << bad;
    }
    EXPECT_FALSE(parse({"--sweep"}, &options, &error));
}

TEST(ScenarioCliTest, RejectsRemovedSimThreadsFlag)
{
    ScenarioCliOptions options;
    std::string error;
    EXPECT_FALSE(parse({"s.json", "--sim-threads", "2"}, &options, &error));
    EXPECT_NE(error.find("unknown flag '--sim-threads'"), std::string::npos)
        << error;
}

/** One open tenant (with a rate curve) and one closed tenant. */
ScenarioSpec
mixedSpec()
{
    ScenarioSpec spec;
    spec.name = "mixed";
    spec.blocks = 16384;
    spec.seed = 5;
    spec.duration = 30000;
    spec.warmupCompletions = 16;

    TenantSpec open;
    open.name = "open";
    open.rate = 0.5;
    spec.tenants.push_back(open);

    TenantSpec curvy;
    curvy.name = "curvy";
    curvy.rateCurve = {{10000, 0.25}, {kTickNever, 1.0}};
    spec.tenants.push_back(curvy);

    TenantSpec closed;
    closed.name = "closed";
    closed.closedLoop = true;
    closed.concurrency = 2;
    closed.dist = KeyDist::Uniform;
    spec.tenants.push_back(closed);
    return spec;
}

TEST(ScenarioSweepTest, ScaledSpecMultipliesLoad)
{
    ScenarioSpec scaled;
    std::string error;
    ASSERT_TRUE(scaledSpec(mixedSpec(), 1.5, &scaled, &error)) << error;
    EXPECT_EQ(scaled.name, "mixed/load=1.5");
    EXPECT_DOUBLE_EQ(scaled.tenants[0].rate, 0.75);
    ASSERT_EQ(scaled.tenants[1].rateCurve.size(), 2u);
    EXPECT_DOUBLE_EQ(scaled.tenants[1].rateCurve[0].ratePerKilocycle,
                     0.375);
    EXPECT_EQ(scaled.tenants[1].rateCurve[0].untilCycle, 10000u);
    EXPECT_DOUBLE_EQ(scaled.tenants[1].rateCurve[1].ratePerKilocycle,
                     1.5);
    EXPECT_EQ(scaled.tenants[2].concurrency, 3u);
    // Everything that is not load stays put.
    EXPECT_EQ(scaled.duration, 30000u);
    EXPECT_EQ(scaled.seed, 5u);
    EXPECT_EQ(scaled.warmupCompletions, 16u);
}

TEST(ScenarioSweepTest, NonIntegerConcurrencyIsAnError)
{
    ScenarioSpec scaled;
    std::string error;
    // 2 x 1.25 = 2.5 outstanding requests cannot exist.
    EXPECT_FALSE(scaledSpec(mixedSpec(), 1.25, &scaled, &error));
    EXPECT_NE(error.find("tenants[2].concurrency"), std::string::npos)
        << error;
    // 2 x 0.25 = 0.5 rounds to no client at all.
    EXPECT_FALSE(scaledSpec(mixedSpec(), 0.25, &scaled, &error));
    EXPECT_NE(error.find("tenants[2].concurrency"), std::string::npos)
        << error;
    EXPECT_TRUE(scaledSpec(mixedSpec(), 0.5, &scaled, &error)) << error;
    EXPECT_EQ(scaled.tenants[2].concurrency, 1u);
}

ScenarioOutcome
run(const ScenarioSpec &spec, const ScenarioRunOptions &options)
{
    ScenarioOutcome outcome;
    std::string error;
    EXPECT_TRUE(runScenario(spec, options, &outcome, &error)) << error;
    return outcome;
}

ScenarioOutcome
runScaled(const ScenarioSpec &spec, double factor,
          const ScenarioRunOptions &options)
{
    ScenarioSpec scaled;
    std::string error;
    EXPECT_TRUE(scaledSpec(spec, factor, &scaled, &error)) << error;
    return run(scaled, options);
}

std::string
serviceJson(const ServiceSnapshot &snapshot)
{
    JsonWriter w;
    writeServiceSnapshot(w, snapshot);
    return w.str();
}

ScenarioRunOptions
sharedOnly()
{
    ScenarioRunOptions options;
    options.isolation = false;
    options.security = false;
    return options;
}

TEST(ScenarioSweepTest, LoadOnePointMatchesUnsweptRun)
{
    const ScenarioOutcome plain = run(mixedSpec(), sharedOnly());
    const ScenarioOutcome swept = runScaled(mixedSpec(), 1.0, sharedOnly());
    EXPECT_EQ(swept.base.point.id, "palermo/scenario/mixed/load=1");
    EXPECT_EQ(serviceJson(swept.service), serviceJson(plain.service));
}

TEST(ScenarioSweepTest, OpenLoopPointTracksOfferedRate)
{
    ScenarioSpec spec;
    spec.name = "paced";
    spec.blocks = 4096;
    spec.duration = 60000;
    TenantSpec paced;
    paced.name = "paced";
    paced.process = ArrivalProcess::Fixed;
    paced.rate = 1.0;
    spec.tenants.push_back(paced);

    ScenarioRunOptions options;
    options.isolation = false;
    // Factor 2: fixed arrivals at 2/kilocycle, far below saturation:
    // one every 500 cycles from cycle 500 to the 60000-cycle horizon.
    const ScenarioOutcome outcome = runScaled(spec, 2.0, options);
    EXPECT_EQ(outcome.service.global.rejected, 0u);
    EXPECT_EQ(outcome.service.global.completed, 119u);
    EXPECT_NEAR(outcome.service.offeredPerKilocycle, 2.0, 0.1);
    EXPECT_NEAR(outcome.service.achievedPerKilocycle, 2.0, 0.3);
    EXPECT_EQ(outcome.base.point.id, "palermo/scenario/paced/load=2");

    std::vector<std::string> problems;
    EXPECT_TRUE(scenarioSanityCheck(outcome, &problems))
        << (problems.empty() ? "" : problems.front());
}

TEST(ScenarioSweepTest, ClosedLoopPointRunsScaledConcurrency)
{
    ScenarioSpec spec;
    spec.name = "clients";
    spec.blocks = 4096;
    spec.duration = 20000;
    TenantSpec clients;
    clients.name = "clients";
    clients.closedLoop = true;
    clients.concurrency = 1;
    spec.tenants.push_back(clients);

    const ScenarioOutcome one = runScaled(spec, 1.0, sharedOnly());
    const ScenarioOutcome four = runScaled(spec, 4.0, sharedOnly());
    EXPECT_EQ(four.spec.tenants[0].concurrency, 4u);
    EXPECT_EQ(four.base.point.id, "palermo/scenario/clients/load=4");
    for (const ScenarioOutcome *outcome : {&one, &four}) {
        EXPECT_EQ(outcome->service.global.rejected, 0u);
        EXPECT_EQ(outcome->service.global.accepted,
                  outcome->service.global.completed);
        std::vector<std::string> problems;
        EXPECT_TRUE(scenarioSanityCheck(*outcome, &problems))
            << (problems.empty() ? "" : problems.front());
    }
    // More clients keep the controller busier.
    EXPECT_GT(four.service.achievedPerKilocycle,
              one.service.achievedPerKilocycle);
}

std::string
sweepDocument()
{
    const std::vector<double> factors{1.0, 2.0};
    std::vector<ScenarioOutcome> outcomes;
    for (double factor : factors)
        outcomes.push_back(
            runScaled(mixedSpec(), factor, ScenarioRunOptions{}));
    return scenarioSweepDocument(outcomes, factors, "unit");
}

TEST(ScenarioSweepTest, DocumentIsByteDeterministic)
{
    const std::string first = sweepDocument();
    EXPECT_EQ(first, sweepDocument());

    EXPECT_NE(first.find("\"id\": \"palermo/scenario/mixed/load=1\""),
              std::string::npos);
    EXPECT_NE(first.find("\"id\": \"palermo/scenario/mixed/load=2\""),
              std::string::npos);
    EXPECT_NE(
        first.find("\"id\": \"palermo/scenario/mixed/load=2/iso/closed\""),
        std::string::npos);
    EXPECT_NE(first.find("\"load\": 2"), std::string::npos);
    EXPECT_NE(first.find("\"max_achieved_per_kilocycle\""),
              std::string::npos);
}

} // namespace
} // namespace palermo
