/**
 * @file
 * Declarative multi-tenant scenario schema.
 *
 * A scenario file is a JSON description of N traffic sources sharing
 * one ObliviousKvService: each tenant declares its arrival discipline
 * (open-loop Poisson/fixed at a rate or piecewise rate curve, with
 * optional on/off bursts — or closed-loop at a concurrency), its key
 * population (Zipf/uniform point lookups with an optional sequential
 * scan mix, or a replayed trace file), and its read/write mix. The
 * parser is strict — unknown keys, wrong types, and contradictory
 * combinations (a closed-loop rate curve, a Zipf trace) are errors
 * with a field path in the message — because a silently ignored knob
 * in an experiment spec produces a wrong paper figure, not a crash.
 */

#ifndef PALERMO_SCENARIO_SCENARIO_HH
#define PALERMO_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/arrival.hh"
#include "service/request_queue.hh"
#include "sim/system_config.hh"

namespace palermo {

/** Where a tenant's requests come from. */
enum class SourceKind
{
    Synthetic, ///< Sampled keys (Zipf/uniform, optional scans).
    Trace,     ///< Replayed from a trace file, paced by the arrivals.
};

/** One tenant's traffic shape. */
struct TenantSpec
{
    std::string name;

    SourceKind source = SourceKind::Synthetic;
    std::string tracePath;         ///< As written in the file.
    std::string resolvedTracePath; ///< Relative to the scenario file.

    /** Open loop fires at a rate; closed loop holds a concurrency. */
    bool closedLoop = false;
    ArrivalProcess process = ArrivalProcess::Poisson;
    double rate = 1.0; ///< Requests per kilocycle (open loop).
    /** Piecewise rate (open loop); empty means constant `rate`. */
    std::vector<RateCurve::Segment> rateCurve;
    unsigned concurrency = 4; ///< Outstanding requests (closed loop).

    /** On/off gating (open loop); offCycles == 0 means always on. */
    std::uint64_t burstOnCycles = 0;
    std::uint64_t burstOffCycles = 0;

    KeyDist dist = KeyDist::Zipf;
    double zipfAlpha = 0.99;
    double writeFraction = 0.0;

    /** Fraction of arrivals that start a sequential scan instead of a
     * point lookup; the next scanLength-1 arrivals continue it. */
    double scanFraction = 0.0;
    std::uint64_t scanLength = 8;

    /** The rate curve in effect (constant `rate` when none given). */
    RateCurve curve() const
    {
        return rateCurve.empty() ? RateCurve::constant(rate)
                                 : RateCurve(rateCurve);
    }
};

/** One full scenario: the shared service plus its tenants. */
struct ScenarioSpec
{
    std::string name;
    ProtocolKind protocol = ProtocolKind::Palermo;
    std::uint64_t blocks = 0; ///< 0 keeps the protocol default.
    std::uint64_t seed = 1;
    /** Cycles of arrival generation (accepted work still drains). */
    std::uint64_t duration = 100000;
    /** Completions before the measured window opens. */
    std::uint64_t warmupCompletions = 0;

    std::uint64_t queueCapacity = 64;
    QueuePolicy queuePolicy = QueuePolicy::Reject;
    std::uint64_t sessionDepth = 8;

    std::vector<TenantSpec> tenants;
};

/**
 * Parse a scenario document. @p base_dir anchors relative trace paths
 * (pass the scenario file's directory). On failure returns false and
 * fills *error with a field-path diagnostic; that includes a block
 * space too small, after protocol normalization, to give every tenant
 * its own slice.
 */
bool parseScenario(const std::string &text, const std::string &base_dir,
                   ScenarioSpec *out, std::string *error);

/** Read and parse a scenario file (trace paths resolve beside it). */
bool loadScenarioFile(const std::string &path, ScenarioSpec *out,
                      std::string *error);

/**
 * One load-sweep step: a copy of @p spec with every open-loop rate
 * (each rate-curve segment included) and every closed-loop concurrency
 * multiplied by @p factor, and "/load=<factor>" appended to the name
 * so the point ids of a sweep stay distinct. Fails with a field-path
 * *error when a scaled concurrency is not a positive integer.
 */
bool scaledSpec(const ScenarioSpec &spec, double factor,
                ScenarioSpec *out, std::string *error);

} // namespace palermo

#endif // PALERMO_SCENARIO_SCENARIO_HH
