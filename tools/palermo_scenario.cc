/**
 * @file
 * palermo_scenario: run a declarative multi-tenant scenario.
 *
 * Loads a scenario JSON file (see src/scenario/scenario.hh for the
 * schema), expands every tenant's traffic into one deterministic
 * arrival sequence merged in simulated time, drives a shared
 * ObliviousKvService over one SimSession, and reports per-tenant
 * latency/throughput, Jain fairness, slowdown-vs-isolation
 * interference, and the uniformity/mutual-information security gates
 * on the merged attacker-visible leaf sequence.
 *
 * --sweep F1,F2,... turns the scenario into a load sweep: one run per
 * factor, with every open-loop rate and closed-loop concurrency scaled
 * by it, rendered as one document. A sweep over a saturation scenario
 * (tools/scenarios/saturation-*.json) is the throughput-vs-latency
 * curve, with every point's whole trace through the security gates.
 *
 * Exit status: 0 on success, 1 on engine/sanity/security or I/O
 * failure, 2 on usage/scenario-format errors.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "scenario/engine.hh"
#include "scenario/scenario.hh"
#include "scenario/scenario_cli.hh"
#include "sim/metrics_json.hh"
#include "sim/run_cli.hh"

using namespace palermo;

int
main(int argc, char **argv)
{
    setVerbose(false);

    ScenarioCliOptions options;
    std::string error;
    if (!parseScenarioCliArgs(argc - 1, argv + 1, &options, &error)) {
        std::fprintf(stderr, "palermo_scenario: %s\n\n%s",
                     error.c_str(), scenarioUsage().c_str());
        return 2;
    }
    if (options.help) {
        std::fputs(scenarioUsage().c_str(), stdout);
        return 0;
    }
    if (options.listProtocols) {
        std::fputs(protocolListing().c_str(), stdout);
        return 0;
    }
    if (options.scenarioPath.empty()) {
        std::fprintf(stderr,
                     "palermo_scenario: a scenario file is "
                     "required\n\n%s",
                     scenarioUsage().c_str());
        return 2;
    }

    ScenarioSpec spec;
    if (!loadScenarioFile(options.scenarioPath, &spec, &error)) {
        std::fprintf(stderr, "palermo_scenario: %s\n", error.c_str());
        return 2;
    }

    // A sweep runs one scaled copy of the spec per load factor; every
    // copy is checked before the first one runs.
    std::vector<ScenarioSpec> runs;
    if (options.sweep.empty())
        runs.push_back(spec);
    for (double factor : options.sweep) {
        ScenarioSpec scaled;
        if (!scaledSpec(spec, factor, &scaled, &error)) {
            std::fprintf(stderr, "palermo_scenario: %s: %s\n",
                         options.scenarioPath.c_str(), error.c_str());
            return 2;
        }
        runs.push_back(std::move(scaled));
    }

    std::FILE *table = options.jsonPath == "-" ? stderr : stdout;
    std::vector<ScenarioOutcome> outcomes;
    for (const ScenarioSpec &run : runs) {
        ScenarioOutcome outcome;
        if (!runScenario(run, options.runOptions(), &outcome, &error)) {
            std::fprintf(stderr, "palermo_scenario: %s\n", error.c_str());
            return 1;
        }
        if (!options.sweep.empty())
            std::fprintf(table, "== %s\n", outcome.base.point.id.c_str());
        std::fputs(scenarioTable(outcome).c_str(), table);
        outcomes.push_back(std::move(outcome));
    }

    bool ok = true;
    if (!options.jsonPath.empty())
        ok = MetricsJson::writeFile(
            options.jsonPath,
            options.sweep.empty()
                ? scenarioDocument(outcomes.front(), "palermo_scenario")
                : scenarioSweepDocument(outcomes, options.sweep,
                                        "palermo_scenario"));

    for (const ScenarioOutcome &outcome : outcomes) {
        std::vector<std::string> problems;
        if (scenarioSanityCheck(outcome, &problems))
            continue;
        ok = false;
        for (const std::string &problem : problems)
            std::fprintf(stderr, "palermo_scenario: SANITY: %s\n",
                         problem.c_str());
    }
    return ok ? 0 : 1;
}
