/**
 * @file Scenario schema tests: parsed fields, strict-parser
 * diagnostics for every contradictory knob combination, and a
 * deterministic mutation fuzz over a full scenario text (the parser
 * must reject or accept, never crash or hang).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "scenario/scenario.hh"

namespace palermo {
namespace {

/** A scenario exercising every optional knob at least once. */
const char *kFullScenario = R"json({
  "name": "full",
  "protocol": "path",
  "blocks": 16384,
  "seed": 9,
  "duration": 50000,
  "warmup_completions": 32,
  "queue_capacity": 32,
  "queue_policy": "block",
  "session_depth": 4,
  "tenants": [
    {
      "name": "curvy",
      "mode": "open",
      "arrival": "poisson",
      "rate_curve": [
        {"until": 10000, "rate": 0.5},
        {"until": 20000, "rate": 2.0},
        {"rate": 0.25}
      ],
      "dist": "zipf",
      "zipf_alpha": 1.1,
      "write_fraction": 0.25,
      "scan_fraction": 0.1,
      "scan_length": 4
    },
    {
      "name": "bursty",
      "mode": "open",
      "arrival": "fixed",
      "rate": 1.5,
      "burst": {"on": 2000, "off": 6000},
      "dist": "uniform"
    },
    {
      "name": "closed",
      "mode": "closed",
      "concurrency": 8,
      "dist": "zipf",
      "zipf_alpha": 0.8,
      "write_fraction": 0.5
    },
    {
      "name": "replay",
      "mode": "open",
      "arrival": "poisson",
      "rate": 0.5,
      "trace": "traces/foo.trace"
    }
  ]
})json";

TEST(ScenarioTest, ParsesEveryKnob)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(parseScenario(kFullScenario, "/base", &spec, &error))
        << error;

    EXPECT_EQ(spec.name, "full");
    EXPECT_EQ(spec.protocol, ProtocolKind::PathOram);
    EXPECT_EQ(spec.blocks, 16384u);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_EQ(spec.duration, 50000u);
    EXPECT_EQ(spec.warmupCompletions, 32u);
    EXPECT_EQ(spec.queueCapacity, 32u);
    EXPECT_EQ(spec.queuePolicy, QueuePolicy::Block);
    EXPECT_EQ(spec.sessionDepth, 4u);
    ASSERT_EQ(spec.tenants.size(), 4u);

    const TenantSpec &curvy = spec.tenants[0];
    EXPECT_FALSE(curvy.closedLoop);
    ASSERT_EQ(curvy.rateCurve.size(), 3u);
    EXPECT_EQ(curvy.rateCurve[0].untilCycle, 10000u);
    EXPECT_EQ(curvy.rateCurve[2].untilCycle, kTickNever);
    EXPECT_DOUBLE_EQ(curvy.scanFraction, 0.1);
    EXPECT_EQ(curvy.scanLength, 4u);

    const TenantSpec &bursty = spec.tenants[1];
    EXPECT_EQ(bursty.process, ArrivalProcess::Fixed);
    EXPECT_EQ(bursty.burstOnCycles, 2000u);
    EXPECT_EQ(bursty.burstOffCycles, 6000u);
    EXPECT_EQ(bursty.dist, KeyDist::Uniform);

    const TenantSpec &closed = spec.tenants[2];
    EXPECT_TRUE(closed.closedLoop);
    EXPECT_EQ(closed.concurrency, 8u);

    const TenantSpec &replay = spec.tenants[3];
    EXPECT_EQ(replay.source, SourceKind::Trace);
    EXPECT_EQ(replay.tracePath, "traces/foo.trace");
    EXPECT_EQ(replay.resolvedTracePath, "/base/traces/foo.trace");
}

/** Expect a parse failure whose message mentions @p needle. */
void
expectRejects(const std::string &text, const std::string &needle)
{
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(parseScenario(text, ".", &spec, &error)) << text;
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error '" << error << "' does not mention '" << needle
        << "'";
}

TEST(ScenarioTest, RejectsContradictoryKnobs)
{
    const std::string head =
        R"({"name": "x", "tenants": [{"name": "t", )";
    // Closed loop owns its pacing: no open-loop shaping allowed.
    expectRejects(head + R"("mode": "closed", "rate": 1.0}]})",
                  "rate");
    expectRejects(head + R"("mode": "closed", "arrival": "poisson"}]})",
                  "arrival");
    expectRejects(
        head + R"("mode": "closed", "burst": {"on": 1, "off": 1}}]})",
        "burst");
    // Open loop has no concurrency knob.
    expectRejects(head + R"("mode": "open", "concurrency": 4}]})",
                  "concurrency");
    // Trace tenants replay recorded keys; samplers don't apply.
    expectRejects(head + R"("trace": "a.trace", "dist": "zipf"}]})",
                  "dist");
    expectRejects(
        head + R"("trace": "a.trace", "write_fraction": 0.5}]})",
        "write_fraction");
    // Scan length without a scan fraction is dead config.
    expectRejects(head + R"("scan_length": 4}]})", "scan_length");
}

TEST(ScenarioTest, RejectsMalformedStructure)
{
    expectRejects("", "");
    expectRejects("[]", "");
    expectRejects(R"({"name": "x"})", "tenants");
    expectRejects(R"({"name": "x", "tenants": []})", "tenants");
    expectRejects(R"({"name": "x", "bogus": 1, "tenants": []})",
                  "bogus");
    expectRejects(
        R"({"name": "x", "tenants": [{"name": "a"}, {"name": "a"}]})",
        "duplicate");
    expectRejects(
        R"({"name": "x", "protocol": "nope", "tenants": [{"name": "a"}]})",
        "protocol");
    // Rate-curve boundaries must strictly increase.
    expectRejects(
        R"({"name": "x", "tenants": [{"name": "a", "rate_curve": [)"
        R"({"until": 100, "rate": 1.0}, {"until": 50, "rate": 1.0}]}]})",
        "");
    // A curve that is silent everywhere generates nothing.
    expectRejects(
        R"({"name": "x", "tenants": [{"name": "a", "rate_curve": [)"
        R"({"rate": 0.0}]}]})",
        "");
}

TEST(ScenarioTest, RejectsTooFewBlocksForTheTenants)
{
    const std::string tenants =
        R"("tenants": [{"name": "a", "rate": 1.0}, )"
        R"({"name": "b", "rate": 1.0}, {"name": "c", "rate": 1.0}, )"
        R"({"name": "d", "rate": 1.0}]})";
    // Three blocks cannot be split into four tenant slices.
    expectRejects(R"({"name": "b3", "blocks": 3, "duration": 2000, )"
                      + tenants,
                  "scenario.blocks:");
    ScenarioSpec spec;
    std::string error;
    EXPECT_TRUE(parseScenario(R"({"name": "b4", "blocks": 4, )" + tenants,
                              ".", &spec, &error))
        << error;
}

TEST(ScenarioTest, RejectsBlocksBeyondTheTreeLimit)
{
    // Block ids and leaves are 32-bit: the parse names the limit
    // instead of the tree store panicking at construction.
    expectRejects(R"({"name": "big", "blocks": 4294967296, )"
                  R"("tenants": [{"name": "a", "rate": 1.0}]})",
                  "scenario.blocks: at most 2147483648");
}

TEST(ScenarioTest, MutationFuzzNeverCrashes)
{
    // Seed text: the full scenario, which parses cleanly, so every
    // knob's parser path sits under the mutations.
    const std::string seed = kFullScenario;
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(parseScenario(seed, ".", &spec, &error)) << error;

    // Truncations at every prefix length (step 7 keeps it quick).
    for (std::size_t len = 0; len < seed.size(); len += 7) {
        ScenarioSpec out;
        std::string err;
        parseScenario(seed.substr(0, len), ".", &out, &err);
    }

    // Deterministic byte flips: overwrite one position with a byte
    // drawn from a structural-character alphabet.
    const char alphabet[] = "{}[]\",:x0-";
    Rng rng(2024);
    for (int i = 0; i < 2000; ++i) {
        std::string mutated = seed;
        const std::size_t pos =
            static_cast<std::size_t>(rng.range(mutated.size()));
        mutated[pos] =
            alphabet[rng.range(sizeof(alphabet) - 1)];
        ScenarioSpec out;
        std::string err;
        if (!parseScenario(mutated, ".", &out, &err)) {
            EXPECT_FALSE(err.empty());
        }
    }
}

} // namespace
} // namespace palermo
