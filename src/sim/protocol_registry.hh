/**
 * @file
 * The protocol table: the one place a ProtocolKind becomes a
 * controller.
 *
 * One constant row per Fig. 10 bar, in bar order, holds a protocol's
 * names, its prefetch rule and its controller builder. Name lookup
 * (protocolFromName, protocolKindName, allProtocolKinds), config
 * normalization and controller construction all read it. Adding a
 * protocol means a ProtocolKind value, its Protocol/Controller
 * implementation and one row in protocol_registry.cc.
 *
 * The table is constant-initialized and never written, so sweep
 * worker threads read it without locking.
 */

#ifndef PALERMO_SIM_PROTOCOL_REGISTRY_HH
#define PALERMO_SIM_PROTOCOL_REGISTRY_HH

#include <array>
#include <memory>
#include <span>

#include "sim/system_config.hh"

namespace palermo {

class Controller;

/** Everything the experiment layer needs to know about one protocol. */
struct ProtocolRow
{
    ProtocolKind kind;
    const char *displayName; ///< Figure label ("PathORAM").
    const char *shortToken;  ///< CLI/JSON token ("path").
    /** Extra accepted spellings; unused slots are nullptr. */
    std::array<const char *, 3> aliases;
    /**
     * Prefetch rule. 0: the protocol does not prefetch, and
     * ProtocolConfig::prefetchLen is pinned to 1. Otherwise it honors
     * prefetchLen and runs at this length when the caller left it at
     * the no-prefetch default (1, or 0).
     */
    unsigned defaultPrefetchLen;
    /** Build the timing controller for a normalized configuration. */
    std::unique_ptr<Controller> (*build)(const SystemConfig &config);
};

/** Every row, in Fig. 10 bar order (ProtocolKind order). */
std::span<const ProtocolRow> protocolTable();

/** The row of a kind. */
const ProtocolRow &protocolRow(ProtocolKind kind);

/**
 * Copy of `config` with the protocol's prefetch rule applied — exactly
 * what its builder will see. Design-point producers (sweep expansion,
 * bench harness, replay) record this, so JSON documents report the
 * configuration that actually ran rather than the one the caller
 * happened to pass. Idempotent.
 */
SystemConfig normalizedProtocolConfig(ProtocolKind kind,
                                      const SystemConfig &config);

/**
 * Build a kind's controller from the normalized configuration. Every
 * session, bench and tool builds its controller here.
 */
std::unique_ptr<Controller>
buildProtocolController(ProtocolKind kind, const SystemConfig &config);

} // namespace palermo

#endif // PALERMO_SIM_PROTOCOL_REGISTRY_HH
