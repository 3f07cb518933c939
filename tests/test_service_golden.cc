/**
 * @file
 * Golden-file gate for the inbox-fed serving path.
 *
 * tests/golden/metrics_grid.json pins frontend-bound runExperiment
 * runs only. This test pins the other driver: a tiny two-tenant
 * scenario (one closed-loop client group, one open-loop Poisson
 * source) through ObliviousKvService, SimSession's inbox and the
 * timing stack, rendered with scenarioDocument for four protocols and
 * byte-compared against tests/golden/service_grid.json. Any change to
 * how the session steps, admits or settles cycles shows up here as a
 * byte diff. The prefetching protocols are left out: their completion
 * attribution is still inferred from served-count deltas.
 *
 * The provenance header's "git" value changes every commit, so it is
 * normalized out on both sides before comparing. To regenerate after
 * an INTENDED behavior change:
 *   PALERMO_UPDATE_GOLDEN=1 ./test_service_golden
 * and commit the new golden with the change that explains it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/engine.hh"
#include "scenario/scenario.hh"
#include "scenario/scenario_cli.hh"

namespace palermo {
namespace {

const char *const kGoldenRelPath = "/tests/golden/service_grid.json";

std::string
goldenPath()
{
    return std::string(PALERMO_SOURCE_DIR) + kGoldenRelPath;
}

/** The scenario, with the protocol token spliced in. */
std::string
scenarioText(const std::string &protocol)
{
    return R"({
  "name": "service-golden/)" + protocol + R"(",
  "protocol": ")" + protocol + R"(",
  "blocks": 4096,
  "seed": 7,
  "duration": 60000,
  "warmup_completions": 8,
  "queue_capacity": 16,
  "tenants": [
    {"name": "closed", "mode": "closed", "concurrency": 4,
     "dist": "zipf", "write_fraction": 0.2},
    {"name": "open", "mode": "open", "arrival": "poisson", "rate": 0.8,
     "dist": "uniform", "write_fraction": 0.3}
  ]
})";
}

/** One document per protocol, as the elements of a JSON array. */
std::string
renderGrid()
{
    ScenarioRunOptions options;
    options.isolation = false;
    std::string grid = "[\n";
    const char *const protocols[] = {"ring", "path", "palermo",
                                     "palermo-sw"};
    for (const char *protocol : protocols) {
        ScenarioSpec spec;
        std::string error;
        EXPECT_TRUE(parseScenario(scenarioText(protocol), ".", &spec,
                                  &error))
            << error;
        ScenarioOutcome outcome;
        EXPECT_TRUE(runScenario(spec, options, &outcome, &error))
            << error;
        if (grid.size() > 2)
            grid += ",\n";
        grid += scenarioDocument(outcome, "test_service_golden");
    }
    return grid + "]\n";
}

/** Blank out every commit-dependent provenance value. */
std::string
normalizeGit(std::string document)
{
    const std::string key = "\"git\": \"";
    for (std::size_t start = document.find(key);
         start != std::string::npos; start = document.find(key, start)) {
        const std::size_t value_start = start + key.size();
        const std::size_t value_end = document.find('"', value_start);
        if (value_end == std::string::npos)
            break;
        document.replace(value_start, value_end - value_start, "GIT");
        start = value_start;
    }
    return document;
}

TEST(ServiceGolden, ScenarioGridMatchesCheckedInBytes)
{
    const std::string fresh = normalizeGit(renderGrid());
    ASSERT_NE(fresh.find("\"git\": \"GIT\""), std::string::npos)
        << "provenance normalization failed";

    if (std::getenv("PALERMO_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << fresh;
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "golden updated: " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << goldenPath()
                    << " (regenerate with PALERMO_UPDATE_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string golden = normalizeGit(buffer.str());

    if (golden == fresh)
        return;
    std::size_t at = 0;
    while (at < golden.size() && at < fresh.size()
           && golden[at] == fresh[at])
        ++at;
    const std::size_t from = at < 60 ? 0 : at - 60;
    FAIL() << "document diverges from golden at byte " << at
           << "\n...golden: "
           << golden.substr(from, std::min<std::size_t>(
                                      120, golden.size() - from))
           << "\n...fresh:  "
           << fresh.substr(from, std::min<std::size_t>(
                                     120, fresh.size() - from))
           << "\n(if this change is intended, regenerate with "
              "PALERMO_UPDATE_GOLDEN=1 and commit the new golden)";
}

} // namespace
} // namespace palermo
