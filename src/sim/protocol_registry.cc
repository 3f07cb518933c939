/**
 * @file
 * The protocol table, name resolution, and the table-backed controller
 * builder.
 */

#include "sim/protocol_registry.hh"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "common/log.hh"
#include "controller/palermo_controller.hh"
#include "controller/serial_controller.hh"
#include "oram/ir_oram.hh"
#include "oram/path_oram.hh"
#include "oram/pr_oram.hh"
#include "oram/ring_oram.hh"

namespace palermo {

namespace {

/**
 * A serial protocol under the baseline controller. `args` follow the
 * protocol config in the protocol's constructor (PageORAM's variant).
 */
template <typename P, auto... args>
std::unique_ptr<Controller>
buildSerial(const SystemConfig &config)
{
    return std::make_unique<SerialController>(
        std::make_unique<P>(config.protocol, args...),
        config.serialIssueWidth, 8, config.decryptLatency);
}

/**
 * Palermo's PE mesh, from the config's mesh knobs and decrypt latency.
 * Palermo-SW, the protocol-only bar, runs the same mesh in software
 * mode: levels run one after another within a request and each tree
 * lock spans the PosMap check through ReadPath issue, so only the
 * ReadPaths of consecutive requests overlap. It isolates how much of
 * Palermo's gain needs the co-designed hardware.
 */
template <bool sw_mode>
std::unique_ptr<Controller>
buildPalermo(const SystemConfig &config)
{
    PalermoControllerConfig mesh = config.palermo;
    mesh.swMode = sw_mode;
    mesh.decryptLatency = config.decryptLatency;
    return std::make_unique<PalermoController>(
        std::make_unique<PalermoOram>(config.protocol), mesh);
}

/**
 * Palermo+Prefetch's length when left at the default: the middle of the
 * Fig. 10 PrORAM probe grid {2, 4, 8}, the paper's most common
 * per-workload pick.
 */
constexpr unsigned kPalermoPrefetchLen = 4;

constexpr ProtocolRow kTable[] = {
    {ProtocolKind::PathOram, "PathORAM", "path", {"pathoram"}, 0,
     buildSerial<PathOram>},
    {ProtocolKind::RingOram, "RingORAM", "ring", {"ringoram"}, 0,
     buildSerial<RingOram>},
    {ProtocolKind::PageOram, "PageORAM", "page", {"pageoram"}, 0,
     buildSerial<PathOram, PathOram::Variant::Page>},
    // Fat tree and throttle are left to the caller (Fig. 10 setup).
    {ProtocolKind::PrOram, "PrORAM", "pr", {"proram"}, 1,
     buildSerial<PrOram>},
    {ProtocolKind::IrOram, "IR-ORAM", "ir", {"iroram"}, 0,
     buildSerial<IrOram>},
    {ProtocolKind::PalermoSw, "Palermo-SW", "palermo-sw",
     {"palermosw", "sw"}, 0, buildPalermo<true>},
    {ProtocolKind::Palermo, "Palermo", "palermo", {}, 0,
     buildPalermo<false>},
    {ProtocolKind::PalermoPrefetch, "Palermo+Prefetch", "palermo-pf",
     {"palermo-prefetch", "palermo+prefetch", "palermo+pf"},
     kPalermoPrefetchLen, buildPalermo<false>},
};

constexpr bool
rowsInKindOrder()
{
    for (std::size_t i = 0; i < std::size(kTable); ++i)
        if (static_cast<std::size_t>(kTable[i].kind) != i)
            return false;
    return true;
}
static_assert(rowsInKindOrder(), "protocol rows must follow ProtocolKind");

/** Case-insensitive name match; nullptr (an unused alias) never matches. */
bool
sameName(std::string_view name, const char *spelling)
{
    return spelling != nullptr
        && std::ranges::equal(name, std::string_view(spelling),
                              [](unsigned char a, unsigned char b) {
                                  return std::tolower(a) == std::tolower(b);
                              });
}

} // namespace

std::span<const ProtocolRow>
protocolTable()
{
    return kTable;
}

const ProtocolRow &
protocolRow(ProtocolKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    palermo_assert(index < std::size(kTable), "unknown protocol kind");
    return kTable[index];
}

const char *
protocolKindName(ProtocolKind kind)
{
    return protocolRow(kind).displayName;
}

const char *
protocolShortName(ProtocolKind kind)
{
    return protocolRow(kind).shortToken;
}

const std::vector<ProtocolKind> &
allProtocolKinds()
{
    static const std::vector<ProtocolKind> kinds = [] {
        std::vector<ProtocolKind> result;
        for (const ProtocolRow &row : kTable)
            result.push_back(row.kind);
        return result;
    }();
    return kinds;
}

bool
protocolFromName(const std::string &name, ProtocolKind *kind)
{
    for (const ProtocolRow &row : kTable) {
        bool match = sameName(name, row.displayName)
            || sameName(name, row.shortToken);
        for (const char *alias : row.aliases)
            match = match || sameName(name, alias);
        if (match) {
            *kind = row.kind;
            return true;
        }
    }
    return false;
}

SystemConfig
normalizedProtocolConfig(ProtocolKind kind, const SystemConfig &config)
{
    SystemConfig adjusted = config;
    unsigned &length = adjusted.protocol.prefetchLen;
    const unsigned fallback = protocolRow(kind).defaultPrefetchLen;
    if (fallback == 0)
        length = 1;
    else if (length <= 1)
        length = fallback;
    return adjusted;
}

std::unique_ptr<Controller>
buildProtocolController(ProtocolKind kind, const SystemConfig &config)
{
    return protocolRow(kind).build(normalizedProtocolConfig(kind, config));
}

} // namespace palermo
