/**
 * @file
 * Scenario driver plumbing for tools/palermo_scenario (unit-tested
 * like run_cli): flag parsing, the human-readable per-tenant table,
 * and the palermo-metrics-v1 document with the per-tenant "scenario"
 * block, for one run or for a --sweep of load factors.
 */

#ifndef PALERMO_SCENARIO_SCENARIO_CLI_HH
#define PALERMO_SCENARIO_SCENARIO_CLI_HH

#include <string>
#include <vector>

#include "scenario/engine.hh"

namespace palermo {

/** Everything palermo_scenario accepts on its command line. */
struct ScenarioCliOptions
{
    std::string scenarioPath;   ///< Positional or --scenario FILE.
    std::string jsonPath;       ///< --json PATH ("-" = stdout).
    /** --sweep F,F,...: one run per load factor (see scaledSpec). */
    std::vector<double> sweep;
    bool noIsolation = false;   ///< --no-isolation: skip baselines.
    bool noSecurity = false;    ///< --no-security: skip the gates.
    bool listProtocols = false; ///< --list-protocols (the table).
    bool help = false;          ///< --help / -h.

    /** Resolve engine options from the flags. */
    ScenarioRunOptions runOptions() const
    {
        ScenarioRunOptions options;
        options.isolation = !noIsolation;
        options.security = !noSecurity;
        return options;
    }
};

/** Parse palermo_scenario argv (excluding argv[0]). */
bool parseScenarioCliArgs(int argc, const char *const *argv,
                          ScenarioCliOptions *options,
                          std::string *error);

/** Usage text for palermo_scenario. */
std::string scenarioUsage();

/** Human-readable per-tenant summary table. */
std::string scenarioTable(const ScenarioOutcome &outcome);

/**
 * Render one scenario run as a palermo-metrics-v1 document: the shared
 * run as point 0 with "scenario" (per-tenant stats, fairness,
 * security) and "service" blocks, each isolation baseline as its own
 * point, and fairness/interference scalars under "derived".
 * Byte-deterministic; @p tool names the producing binary.
 */
std::string scenarioDocument(const ScenarioOutcome &outcome,
                             const std::string &tool);

/**
 * Render a load sweep, @p outcomes[i] run at @p factors[i]: each
 * factor's shared run (its "scenario" block gains "load") followed by
 * its isolation points, with the sweep's capacity,
 * max_achieved_per_kilocycle, and worst max_slowdown_p99 under
 * "derived".
 */
std::string scenarioSweepDocument(
    const std::vector<ScenarioOutcome> &outcomes,
    const std::vector<double> &factors, const std::string &tool);

} // namespace palermo

#endif // PALERMO_SCENARIO_SCENARIO_CLI_HH
