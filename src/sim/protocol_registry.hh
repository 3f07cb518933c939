/**
 * @file
 * Open protocol registry: the one place a ProtocolKind becomes a
 * controller.
 *
 * Each protocol describes itself with a ProtocolDescriptor — names,
 * Fig. 10 bar position, capability flags, a config-normalization hook,
 * and a controller builder — and registers it from its own translation
 * unit via a file-scope ProtocolRegistrar. Controller construction
 * (buildProtocolController), protocolFromName, protocolKindName,
 * allProtocolKinds and the per-protocol config fixups are all registry
 * lookups, so adding a protocol is a one-file change: implement the
 * Protocol/Controller, append a registrar, done.
 *
 * Registration units are the top of the layering tower: a protocol's
 * .cc may include sim/ and controller/ headers to describe how it is
 * driven, but nothing in sim/ names a concrete protocol type.
 *
 * Registrars run during static initialization, before main(); lookups
 * are read-only afterwards, so the registry needs no locking. The
 * library is linked as a CMake OBJECT library precisely so that no
 * registration TU can be dropped by static-archive dead stripping.
 */

#ifndef PALERMO_SIM_PROTOCOL_REGISTRY_HH
#define PALERMO_SIM_PROTOCOL_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/system_config.hh"

namespace palermo {

class Controller;

/** Everything the experiment layer needs to know about one protocol. */
struct ProtocolDescriptor
{
    ProtocolKind kind = ProtocolKind::Palermo;

    const char *displayName = nullptr; ///< Figure label ("PathORAM").
    const char *shortToken = nullptr;  ///< CLI/JSON token ("path").
    std::vector<std::string> aliases;  ///< Extra accepted spellings.

    /** Position in the paper's Fig. 10 bar order (0-based, unique). */
    unsigned barOrder = 0;

    // Capability flags.
    /**
     * Honors ProtocolConfig::prefetchLen > 1. Protocols without this
     * capability get prefetchLen pinned to 1 before construction (the
     * clamp the old switch applied case by case).
     */
    bool supportsPrefetch = false;
    /** Can run under the §VI constant-rate/dummy-padding frontend. */
    bool constantRateCapable = true;

    /**
     * Optional normalization applied to a copy of the SystemConfig
     * before build() — e.g. Palermo+Prefetch derives a usable prefetch
     * length when the caller left the no-prefetch default in place.
     * Runs after the supportsPrefetch clamp.
     */
    std::function<void(SystemConfig &)> adjustConfig;

    /** Build the timing controller for an (adjusted) configuration. */
    std::function<std::unique_ptr<Controller>(const SystemConfig &)>
        build;
};

/** Process-wide descriptor table (populated at static-init time). */
class ProtocolRegistry
{
  public:
    static ProtocolRegistry &instance();

    /**
     * Register a descriptor. Panics on duplicate kinds, names, tokens,
     * aliases, or bar positions — collisions are programming errors
     * and surface at process start, not mid-sweep.
     */
    void add(ProtocolDescriptor descriptor);

    /** Descriptor of a kind; panics if the kind was never registered. */
    const ProtocolDescriptor &at(ProtocolKind kind) const;

    /** Descriptor of a kind, or nullptr. */
    const ProtocolDescriptor *find(ProtocolKind kind) const;

    /**
     * Case-insensitive lookup by short token, display name, or alias.
     * Returns nullptr on unknown names.
     */
    const ProtocolDescriptor *findByName(const std::string &name) const;

    /** All descriptors in Fig. 10 bar order. */
    std::vector<const ProtocolDescriptor *> all() const;

    std::size_t size() const { return descriptors_.size(); }

  private:
    ProtocolRegistry() = default;

    /** Stable storage: lookups hand out long-lived pointers. */
    std::vector<std::unique_ptr<ProtocolDescriptor>> descriptors_;
};

/**
 * File-scope self-registration hook:
 *
 *   namespace {
 *   const ProtocolRegistrar registerFoo{{ ... descriptor ... }};
 *   } // namespace
 */
struct ProtocolRegistrar
{
    explicit ProtocolRegistrar(ProtocolDescriptor descriptor);
};

/**
 * Copy of `config` with the protocol's capability clamp (prefetchLen
 * pinned to 1 for non-prefetch designs) and its adjustConfig hook
 * applied — exactly what build() will see. Design-point producers
 * (sweep expansion, bench harness, replay) record this, so JSON
 * documents report the configuration that actually ran rather than
 * the one the caller happened to pass. Idempotent. Fatal when the
 * config asks for constant-rate issue but the protocol lacks the
 * capability.
 */
SystemConfig normalizedProtocolConfig(ProtocolKind kind,
                                      const SystemConfig &config);

/**
 * Resolve a descriptor and build its controller from the normalized
 * configuration. Every session, bench and tool builds its controller
 * here.
 */
std::unique_ptr<Controller>
buildProtocolController(ProtocolKind kind, const SystemConfig &config);

} // namespace palermo

#endif // PALERMO_SIM_PROTOCOL_REGISTRY_HH
