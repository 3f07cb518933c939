/**
 * @file
 * The scenario engine: N declared traffic sources, one shared service.
 *
 * Open-loop tenants are expanded into a single merged arrival schedule
 * before the service is even constructed — every arrival instant, key,
 * and write flag is a pure function of (spec, tenant index), so the
 * merged schedule is byte-deterministic and, because the service steps
 * deterministically on the caller's thread, so is every output byte.
 * Closed-loop tenants ride the completion sink: each response
 * re-issues that tenant's next request, the classic think-time-zero
 * discipline, attributed per tenant.
 *
 * Interference is measured against isolation: after the shared run,
 * each tenant is re-run alone in an identical service (same tenant
 * count, hence the same slice geometry and key mapping — the other
 * tenants are merely silent), and slowdown = shared / isolated for
 * mean and p99 latency. Jain's index condenses achieved throughput
 * and slowdown into scalar fairness numbers.
 *
 * Security runs on the merged run's whole history: the data-tree leaf
 * sequence a bus observer would record (dummies included, warmup
 * included) goes through the chi-square uniformity gate and the lag-1
 * correlation probe, and the Equation-1 timing attacker is fit to the
 * per-request latency/stash samples — the single-stream Fig. 9
 * argument, re-checked on the interleaved multi-tenant trace.
 */

#ifndef PALERMO_SCENARIO_ENGINE_HH
#define PALERMO_SCENARIO_ENGINE_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/fairness.hh"
#include "scenario/scenario.hh"
#include "security/mutual_info.hh"
#include "security/uniformity.hh"
#include "service/kv_service.hh"
#include "sim/sweep.hh"

namespace palermo {

/** How to run a scenario (driver-level knobs, not part of the spec). */
struct ScenarioRunOptions
{
    bool isolation = true; ///< Run per-tenant isolation baselines.
    bool security = true;  ///< Record the leaf trace, run the gates.
};

/** One tenant's outcome in the shared run (plus its iso baseline). */
struct TenantOutcome
{
    std::string name;
    bool closedLoop = false;
    ServiceScopeSnapshot scope; ///< Measured-window counters/latency.

    double demandPerKilocycle = 0.0;   ///< Offered rate, measured window.
    double achievedPerKilocycle = 0.0; ///< Completion rate.

    // Interference vs the tenant running alone (when isolation ran).
    bool isolated = false;
    double isolatedMean = 0.0;
    double isolatedP99 = 0.0;
    double slowdownMean = 1.0;
    double slowdownP99 = 1.0;
};

/** Security-gate results over the merged attacker-visible sequence. */
struct ScenarioSecurity
{
    bool requested = false; ///< The run recorded its leaf trace.
    /** The trace filled the smallest histogram and the gates ran. */
    bool evaluated = false;
    std::uint64_t leafObservations = 0;
    ChiSquareResult chiSquare{0.0, 0, 0.0, true};
    double serialCorrelation = 0.0;
    AttackerModel attacker{0.5, 0.5, 0.0, 0, 0};
    double mutualInformationBits = 0.0;
    bool miEvaluated = false; ///< Enough stash/tree samples to fit.

    /** Correlation magnitude considered remap-independent. */
    static constexpr double kCorrelationBound = 0.1;
    /** Equation-1 leakage considered timing-safe (paper Fig. 9). */
    static constexpr double kMiBound = 0.1;

    /**
     * Accepted lag-1 correlation magnitude for this run. A truly
     * random leaf sequence has lag-1 autocorrelation ~ N(0, 1/n), so
     * short runs widen the gate to three standard errors; the fixed
     * bound takes over once n makes it the stricter test.
     */
    double correlationBound() const
    {
        if (leafObservations < 2)
            return kCorrelationBound;
        const double three_se =
            3.0 / std::sqrt(static_cast<double>(leafObservations));
        return three_se > kCorrelationBound ? three_se
                                            : kCorrelationBound;
    }

    /** All evaluated gates hold. */
    bool pass() const
    {
        if (!evaluated)
            return true;
        if (!chiSquare.uniform)
            return false;
        const double bound = correlationBound();
        if (serialCorrelation > bound || serialCorrelation < -bound)
            return false;
        if (miEvaluated && mutualInformationBits > kMiBound)
            return false;
        return true;
    }
};

/** One isolation baseline run (rendered as its own JSON point). */
struct IsolationRecord
{
    std::string tenant;
    RunRecord base;
    ServiceSnapshot service;
};

/** Everything one scenario run produces. */
struct ScenarioOutcome
{
    ScenarioSpec spec;
    RunRecord base;          ///< Shared run: config + sim metrics.
    ServiceSnapshot service; ///< Shared run: client-visible view.
    std::vector<TenantOutcome> tenants;
    std::vector<IsolationRecord> isolationRuns;

    double jainAchieved = 1.0; ///< Jain over achieved rates.
    double jainSlowdown = 1.0; ///< Jain over p99 slowdowns.
    ScenarioSecurity security;
};

/**
 * Run a scenario to completion. Deterministic in (spec, options).
 * Returns false (with *error) when a tenant's trace file cannot be
 * loaded; the simulation itself cannot fail.
 */
bool runScenario(const ScenarioSpec &spec,
                 const ScenarioRunOptions &options, ScenarioOutcome *out,
                 std::string *error);

/**
 * Scenario-level sanity gate: per-tenant accounting closes (accepted ==
 * completed after the drain, tenant sums match the global scope),
 * quantiles are ordered, no reported latency or queueing-delay
 * quantile of a global or tenant scope, of the shared run or of an
 * isolation run, lies in its histogram's overflow bucket, the stash
 * behaved, and the security gates hold
 * when they ran. A requested gate that could not run for lack of
 * leaf observations is a problem too. Appends one line per problem;
 * true when clean.
 */
bool scenarioSanityCheck(const ScenarioOutcome &outcome,
                         std::vector<std::string> *problems);

} // namespace palermo

#endif // PALERMO_SCENARIO_ENGINE_HH
