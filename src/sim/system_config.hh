/**
 * @file
 * Full-system configuration (paper Table III) plus the scaled bench
 * geometry every experiment binary uses by default.
 */

#ifndef PALERMO_SIM_SYSTEM_CONFIG_HH
#define PALERMO_SIM_SYSTEM_CONFIG_HH

#include <string>
#include <vector>

#include "controller/palermo_controller.hh"
#include "mem/dram_system.hh"
#include "oram/hierarchy.hh"

namespace palermo {

/**
 * Which end-to-end design to instantiate (Fig. 10 bars, in bar order).
 * The enum is only an identity token: names, construction, and the
 * prefetch rule live in the protocol table (sim/protocol_registry.hh).
 */
enum class ProtocolKind
{
    PathOram,
    RingOram,
    PageOram,
    PrOram,          ///< With Fat-Tree + throttle (paper Fig. 10 setup).
    IrOram,
    PalermoSw,
    Palermo,
    PalermoPrefetch, ///< Palermo with PrORAM's chosen prefetch length.
};

// Name helpers below read the protocol table (protocol_registry.cc).

const char *protocolKindName(ProtocolKind kind);

/** Short lowercase token used in CLI flags and JSON point ids. */
const char *protocolShortName(ProtocolKind kind);

/**
 * Parse a protocol name (short token, display name, or alias;
 * case-insensitive). Returns false on unknown names.
 */
bool protocolFromName(const std::string &name, ProtocolKind *kind);

/** All protocol kinds in Fig. 10 bar order. */
const std::vector<ProtocolKind> &allProtocolKinds();

/** Complete experiment configuration. */
struct SystemConfig
{
    ProtocolConfig protocol;
    DramConfig dram;
    PalermoControllerConfig palermo;
    unsigned serialIssueWidth = 16;
    unsigned decryptLatency = 40;

    /** Trace-driven run shape. */
    std::uint64_t totalRequests = 2000;
    double warmupFraction = 0.5;
    bool constantRate = false;   ///< Security-mode fixed issue interval.
    unsigned issueInterval = 400; ///< Cycles between issues when fixed.
    std::uint64_t seed = 1;

    /**
     * Read by nothing: every session steps on its caller's thread.
     * Kept only because benchmark/palermo_bench.cc still sets it
     * (ROADMAP item 4 drops it together with that line). Excluded
     * from describe() and the metrics-JSON config block.
     */
    unsigned simThreads = 1;

    /**
     * Scaled default: 2^18-line (16 MB) protected space, proportionally
     * sized tree-top caches; every figure regenerates in seconds.
     * Honors env overrides PALERMO_REQS / PALERMO_BLOCKS / PALERMO_SEED.
     */
    static SystemConfig benchDefault();

    /** The paper's full Table III geometry (16 GB protected space). */
    static SystemConfig paperTableIII();

    /** Apply PALERMO_* environment overrides. */
    void applyEnvOverrides();

    /** Table III-style description for bench headers. */
    std::string describe() const;
};

} // namespace palermo

#endif // PALERMO_SIM_SYSTEM_CONFIG_HH
