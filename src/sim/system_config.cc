/**
 * @file
 * benchDefault / paperTableIII geometry construction, PALERMO_* env
 * overrides, and the bench-banner description string.
 */

#include "sim/system_config.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/log.hh"

namespace palermo {

SystemConfig
SystemConfig::benchDefault()
{
    SystemConfig config;
    config.protocol.numBlocks = 1ull << 18; // 16 MB protected space.
    config.protocol.treetopBytes = {48 * 1024, 20 * 1024, 8 * 1024};
    config.totalRequests = 2000;
    config.applyEnvOverrides();
    return config;
}

SystemConfig
SystemConfig::paperTableIII()
{
    SystemConfig config;
    config.protocol.numBlocks = 1ull << 28; // 16 GB protected space.
    config.protocol.treetopBytes =
        {256 * 1024, 256 * 1024, 256 * 1024};
    config.totalRequests = 2000;
    config.applyEnvOverrides();
    return config;
}

void
SystemConfig::applyEnvOverrides()
{
    if (const char *reqs = std::getenv("PALERMO_REQS")) {
        const std::uint64_t value = std::strtoull(reqs, nullptr, 10);
        if (value > 0)
            totalRequests = value;
    }
    if (const char *blocks = std::getenv("PALERMO_BLOCKS")) {
        const std::uint64_t value = std::strtoull(blocks, nullptr, 10);
        if (value > 0)
            protocol.numBlocks = value;
    }
    if (const char *seed_env = std::getenv("PALERMO_SEED")) {
        seed = std::strtoull(seed_env, nullptr, 10);
        protocol.seed = seed;
    }
}

std::string
SystemConfig::describe() const
{
    std::ostringstream os;
    os << "protected space   : "
       << (protocol.numBlocks * kBlockBytes >> 20) << " MB ("
       << protocol.numBlocks << " lines)\n";
    os << "ring (Z, S, A)    : (" << protocol.ringZ << ", "
       << protocol.ringS << ", " << protocol.ringA << ")\n";
    os << "path Z            : " << protocol.pathZ << "\n";
    os << "posmap fan-out    : " << protocol.posFanout
       << " (3-level hierarchy, PosMap3 on-chip)\n";
    os << "stash capacity    : " << protocol.stashCapacity << " blocks\n";
    os << "tree-top caches   : " << protocol.treetopBytes[0] / 1024
       << "/" << protocol.treetopBytes[1] / 1024 << "/"
       << protocol.treetopBytes[2] / 1024 << " KB (data/pos1/pos2)\n";
    os << "DRAM              : " << dram.timing.name << ", "
       << dram.org.channels << " channels, "
       << dram.timing.bytesPerCycle() * dram.org.channels
            * dram.timing.clockGHz
       << " GB/s peak\n";
    os << "PE mesh           : 3 x " << palermo.columns << " @ "
       << dram.timing.clockGHz << " GHz\n";
    os << "requests          : " << totalRequests << " (warmup "
       << static_cast<unsigned>(warmupFraction * 100) << "%)\n";
    return os.str();
}

} // namespace palermo
