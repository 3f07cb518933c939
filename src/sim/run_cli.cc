/**
 * @file
 * palermo_run flag parsing and base-config resolution.
 */

#include "sim/run_cli.hh"

#include <iomanip>
#include <sstream>

#include "sim/protocol_registry.hh"

namespace palermo {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

bool
parseRunArgs(int argc, const char *const *argv, RunOptions *options,
             std::string *error)
{
    RunOptions result;

    ArgCursor cursor(argc, argv);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        std::string value;

        if (name == "--help" || name == "-h") {
            result.help = true;
        } else if (name == "--list") {
            result.listPoints = true;
        } else if (name == "--list-protocols") {
            result.listProtocols = true;
        } else if (name == "--list-workloads") {
            result.listWorkloads = true;
        } else if (name == "--paper") {
            result.paperGeometry = true;
        } else if (name == "--constant-rate") {
            result.constantRate = true;
        } else if (name == "--protocol") {
            if (!cursor.value(&value))
                return fail(error, "--protocol needs a name");
            if (!protocolFromName(value, &result.protocol))
                return fail(error, "unknown protocol '" + value + "'");
        } else if (name == "--workload") {
            if (!cursor.value(&value))
                return fail(error, "--workload needs a name");
            if (!tryWorkloadFromName(value, &result.workload))
                return fail(error, "unknown workload '" + value + "'");
        } else if (name == "--blocks") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.blocks)
                || result.blocks == 0)
                return fail(error, "--blocks needs a positive integer");
        } else if (name == "--reqs") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.reqs)
                || result.reqs == 0)
                return fail(error, "--reqs needs a positive integer");
        } else if (name == "--seed") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.seed))
                return fail(error, "--seed needs an unsigned integer");
            result.seedSet = true;
        } else if (name == "--sweep") {
            if (!cursor.value(&value))
                return fail(error, "--sweep needs a grid spec");
            if (!result.sweep.empty())
                result.sweep.push_back(';');
            result.sweep.append(value);
        } else if (name == "--json") {
            if (!cursor.value(&value))
                return fail(error, "--json needs a path (or '-')");
            result.jsonPath = value;
        } else if (name == "--jobs" || name == "-j") {
            std::uint64_t jobs = 0;
            if (!cursor.value(&value) || !parseUnsigned(value, &jobs)
                || jobs == 0)
                return fail(error, "--jobs needs a positive integer");
            result.jobs = static_cast<unsigned>(jobs);
        } else {
            return fail(error, "unknown flag '" + name + "'");
        }
    }

    *options = result;
    return true;
}

SystemConfig
RunOptions::baseConfig() const
{
    SystemConfig config = paperGeometry ? SystemConfig::paperTableIII()
                                        : SystemConfig::benchDefault();
    if (blocks)
        config.protocol.numBlocks = blocks;
    if (reqs)
        config.totalRequests = reqs;
    if (seedSet) {
        config.seed = seed;
        config.protocol.seed = seed;
    }
    config.constantRate = constantRate;
    return config;
}

std::vector<DesignPoint>
RunOptions::expandPoints(std::string *error) const
{
    SweepSpec spec;
    if (!SweepSpec::parse(sweep, &spec, error))
        return {};
    return spec.expand(protocol, workload, baseConfig());
}

namespace {

/** "a|b|c" join of the registered protocol tokens (usage text). */
std::string
protocolTokens()
{
    std::string joined;
    for (ProtocolKind kind : allProtocolKinds()) {
        if (!joined.empty())
            joined.push_back('|');
        joined.append(protocolShortName(kind));
    }
    return joined;
}

std::string
workloadTokens()
{
    std::string joined;
    for (Workload workload : allWorkloads()) {
        if (!joined.empty())
            joined.push_back('|');
        joined.append(workloadName(workload));
    }
    return joined;
}

} // namespace

std::string
protocolListing()
{
    std::string out;
    for (const ProtocolRow &row : protocolTable()) {
        std::ostringstream line;
        line << std::left << std::setw(14) << row.shortToken
             << std::setw(20) << row.displayName;
        // Every protocol runs under the constant-rate frontend.
        line << std::setw(24)
             << (row.defaultPrefetchLen ? "prefetch,constant-rate"
                                        : "constant-rate");
        for (std::size_t i = 0; i < row.aliases.size(); ++i)
            if (row.aliases[i] != nullptr)
                line << (i ? ", " : "aliases: ") << row.aliases[i];
        std::string text = line.str();
        while (!text.empty() && text.back() == ' ')
            text.pop_back(); // Diff-stable: no trailing padding.
        out += text;
        out += '\n';
    }
    return out;
}

std::string
workloadListing()
{
    std::ostringstream os;
    for (Workload workload : allWorkloads())
        os << workloadName(workload) << '\n';
    return os.str();
}

std::string
runUsage()
{
    std::ostringstream os;
    os << "usage: palermo_run [options]\n"
       << "\n"
       << "Run one design point, or a sweep grid, and report metrics.\n"
       << "\n"
       << "options:\n"
       << "  --protocol NAME   " << protocolTokens() << "\n"
       << "                    (default: palermo)\n"
       << "  --workload NAME   " << workloadTokens() << "\n"
       << "                    (default: random)\n"
       << "  --blocks N        protected 64B lines (default: 2^18)\n"
       << "  --reqs N          real LLC misses to simulate "
          "(default: 2000)\n"
       << "  --seed N          determinism seed (default: 1)\n"
       << "  --paper           Table III 16 GB geometry instead of the\n"
       << "                    scaled bench default\n"
       << "  --constant-rate   fixed-interval issue with dummy padding\n"
       << "  --sweep SPEC      grid axes: 'axis=v1,v2;axis=...' over\n"
       << "                    protocol, workload, zsa (Z:S:A), pe,\n"
       << "                    channels, prefetch, seed; repeatable\n"
       << "  --jobs N          worker threads for the sweep "
          "(default: 1)\n"
       << "  --json PATH       write palermo-metrics-v1 JSON "
          "('-' = stdout)\n"
       << "  --list            print the expanded grid and exit\n"
       << "  --list-protocols  print the protocol table and exit\n"
       << "  --list-workloads  print workload names and exit\n"
       << "  --help            this text\n"
       << "\n"
       << "example:\n"
       << "  palermo_run --protocol palermo --workload graph \\\n"
       << "      --sweep prefetch=0,4,8 --jobs 4 --json out.json\n";
    return os.str();
}


bool
parseReplayArgs(int argc, const char *const *argv,
                ReplayOptions *options, std::string *error)
{
    ReplayOptions result;

    ArgCursor cursor(argc, argv);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        std::string value;

        if (name == "--help" || name == "-h") {
            result.help = true;
        } else if (name == "--list-protocols") {
            result.listProtocols = true;
        } else if (name == "--paper") {
            result.paperGeometry = true;
        } else if (name == "--trace") {
            if (!cursor.value(&value))
                return fail(error, "--trace needs a file path");
            result.tracePath = value;
        } else if (name == "--protocol") {
            if (!cursor.value(&value))
                return fail(error, "--protocol needs a name");
            if (!protocolFromName(value, &result.protocol))
                return fail(error, "unknown protocol '" + value + "'");
        } else if (name == "--blocks") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.blocks)
                || result.blocks == 0)
                return fail(error, "--blocks needs a positive integer");
        } else if (name == "--seed") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.seed))
                return fail(error, "--seed needs an unsigned integer");
            result.seedSet = true;
        } else if (name == "--depth") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.depth)
                || result.depth == 0)
                return fail(error, "--depth needs a positive integer");
        } else if (name == "--progress") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.progress)
                || result.progress == 0)
                return fail(error,
                            "--progress needs a positive integer");
        } else if (name == "--json") {
            if (!cursor.value(&value))
                return fail(error, "--json needs a path (or '-')");
            result.jsonPath = value;
        } else {
            return fail(error, "unknown flag '" + name + "'");
        }
    }

    *options = result;
    return true;
}

SystemConfig
ReplayOptions::baseConfig() const
{
    SystemConfig config = paperGeometry ? SystemConfig::paperTableIII()
                                        : SystemConfig::benchDefault();
    if (blocks)
        config.protocol.numBlocks = blocks;
    if (seedSet) {
        config.seed = seed;
        config.protocol.seed = seed;
    }
    return config;
}

std::string
replayUsage()
{
    std::ostringstream os;
    os << "usage: palermo_replay --trace FILE [options]\n"
       << "\n"
       << "Replay an external LLC-miss trace through a SimSession.\n"
       << "Multi-tenant scenario files run under palermo_scenario.\n"
       << "\n"
       << "options:\n"
       << "  --trace FILE      trace file ('R <line>' / 'W <line> "
          "[value]')\n"
       << "  --protocol NAME   " << protocolTokens() << "\n"
       << "                    (default: palermo)\n"
       << "  --blocks N        protected 64B lines (default: 2^18)\n"
       << "  --seed N          determinism seed (default: 1)\n"
       << "  --paper           Table III 16 GB geometry\n"
       << "  --depth N         submit-queue depth ahead of the "
          "controller (default: 8)\n"
       << "  --progress N      print a mid-run snapshot line to stderr "
          "every N served\n"
       << "  --json PATH       write palermo-metrics-v1 JSON "
          "('-' = stdout)\n"
       << "  --list-protocols  print the protocol table and exit\n"
       << "  --help            this text\n";
    return os.str();
}

} // namespace palermo
