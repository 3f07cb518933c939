/**
 * @file
 * Statistics shared by all ORAM timing controllers: per-level cycle
 * attribution (the Fig. 3b breakdown), response latency distribution
 * (Fig. 9), and the per-request samples the security analysis consumes.
 */

#ifndef PALERMO_CONTROLLER_CONTROLLER_STATS_HH
#define PALERMO_CONTROLLER_CONTROLLER_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "oram/hierarchy.hh"

namespace palermo {

/** One retired ORAM request's security-relevant observables. */
struct LatencySample
{
    double latency;      ///< Response latency in cycles.
    bool servedFromStash; ///< Victim behavior B (Table I).
};

/** Aggregate controller statistics. */
struct ControllerStats
{
    /** Cycles attributed per hierarchy level, DRAM-active vs stalled. */
    std::array<std::uint64_t, kHierLevels> dramCycles{};
    std::array<std::uint64_t, kHierLevels> syncCycles{};
    std::uint64_t idleCycles = 0;
    std::uint64_t totalCycles = 0;

    std::uint64_t served = 0;     ///< Real LLC misses resolved.
    std::uint64_t dummies = 0;    ///< Dummy / background requests.
    std::uint64_t llcHits = 0;    ///< Prefetch-filtered misses.
    std::uint64_t issuedReads = 0;
    std::uint64_t issuedWrites = 0;

    Histogram latency{100.0, 200};
    std::vector<LatencySample> samples;

    /**
     * Attacker-visible data-tree leaf sequence, in commit order, dummy
     * and real accesses alike — exactly what a DRAM bus observer sees.
     * Off by default (unbounded growth); drivers that run the security
     * gates flip recordLeafTrace before the first access. leafSpace is
     * the data tree's leaf count, the trace's alphabet size.
     */
    bool recordLeafTrace = false;
    std::uint64_t leafSpace = 0;
    std::vector<Leaf> leafTrace;

    /** Append one observed data-level leaf (no-op unless enabled). */
    void observeLeaf(Leaf leaf)
    {
        if (recordLeafTrace)
            leafTrace.push_back(leaf);
    }

    /** Fraction of busy cycles spent stalled (ORAM-sync, Fig. 3b). */
    double syncFraction() const;

    /** Per-level share of busy cycles: {level, dram?} -> fraction. */
    double levelShare(unsigned level, bool dram) const;
};

} // namespace palermo

#endif // PALERMO_CONTROLLER_CONTROLLER_STATS_HH
