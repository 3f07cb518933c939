/**
 * @file
 * bench_sim_speed: how fast is the simulator itself?
 *
 * Every other bench measures the simulated machine; this one measures
 * the simulator. For a grid of tree sizes (--sizes, log2 block counts),
 * protocols (--protocols), and host thread counts (--threads, the
 * --sim-threads knob; ids gain a /tN suffix beyond 1, and a /cN suffix
 * when --channels overrides the DRAM org) it runs each design point to
 * completion
 * and reports host-side speed for the post-warmup segment: simulated
 * cycles/sec, requests/sec, heap allocations per request, and peak
 * RSS (per point: the kernel's high-water mark is reset before each
 * one after the first). The simulated metrics go into the usual
 * palermo-metrics-v1 "points" records (so perf_compare can pin them
 * exactly — they are deterministic); the host-side numbers go into
 * "derived" under "speed.<id>.*" (they vary run to run and are gated
 * with tolerance).
 *
 * --before FILE imports the "speed.*" keys of an earlier document as
 * "before.speed.*" and adds "speedup.<id>" = after/before requests per
 * second, which is how BENCH_sim_speed.json carries the before/after
 * story of the pooling work.
 *
 * Unlike the figure benches this document embeds wall-clock times, so
 * it is NOT byte-deterministic; tools/perf_compare knows which fields
 * to compare exactly and which with tolerance. Its generator object
 * names the host (core count and CPU model) the times came from.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/alloc_count.hh"
#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/json_value.hh"
#include "sim/metrics_json.hh"
#include "sim/protocol_registry.hh"
#include "sim/run_cli.hh"
#include "sim/sweep.hh"

using namespace palermo;

namespace {

struct SpeedOptions
{
    std::vector<unsigned> sizes{16, 18, 20, 22, 24}; ///< log2 blocks.
    std::vector<ProtocolKind> protocols{ProtocolKind::Palermo,
                                        ProtocolKind::PathOram};
    std::vector<unsigned> threads{1}; ///< --threads (sim-threads grid).
    unsigned channels = 0;            ///< --channels (0 = default org).
    std::uint64_t reqs = 0; ///< 0 = SystemConfig default.
    bool seedSet = false;
    std::uint64_t seed = 0;
    std::string jsonPath;
    std::string beforePath;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --sizes L,L,...      log2 tree sizes (default 16,18,20,22,24)\n"
        "  --protocols P,P,...  protocol tokens (default palermo,path)\n"
        "  --threads N,N,...    sim-threads per point (default 1); ids\n"
        "                       gain a /tN suffix for N > 1\n"
        "  --channels N         DRAM channels (default: stock org); ids\n"
        "                       gain a /cN suffix when set\n"
        "  --reqs N             requests per point (default %u)\n"
        "  --seed N             base seed (default %u)\n"
        "  --json PATH          write palermo-metrics-v1 JSON ('-' = "
        "stdout)\n"
        "  --before PATH        import an earlier document's speed.* "
        "keys\n"
        "                       as before.* and emit speedup.<id>\n",
        argv0, static_cast<unsigned>(SystemConfig().totalRequests),
        static_cast<unsigned>(SystemConfig().seed));
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(text);
    while (std::getline(in, part, ','))
        parts.push_back(part);
    return parts;
}

bool
parseSpeedArgs(int argc, const char *const *argv, SpeedOptions *options,
               std::string *error)
{
    SpeedOptions result;
    ArgCursor cursor(argc, argv);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        std::string value;
        const auto need = [&](const char *what) {
            *error = name + " needs " + what;
            return false;
        };
        if (name == "--help" || name == "-h") {
            usage("bench_sim_speed");
            std::exit(0);
        } else if (name == "--sizes") {
            if (!cursor.value(&value))
                return need("a comma list of log2 sizes");
            result.sizes.clear();
            for (const std::string &part : splitCommas(value)) {
                std::uint64_t log2 = 0;
                if (!parseUnsigned(part, &log2) || log2 < 4 || log2 > 30)
                    return need("log2 sizes in [4, 30]");
                result.sizes.push_back(static_cast<unsigned>(log2));
            }
            if (result.sizes.empty())
                return need("at least one size");
        } else if (name == "--protocols") {
            if (!cursor.value(&value))
                return need("a comma list of protocol tokens");
            result.protocols.clear();
            for (const std::string &part : splitCommas(value)) {
                ProtocolKind kind;
                if (!protocolFromName(part, &kind)) {
                    *error = "unknown protocol '" + part + "'";
                    return false;
                }
                result.protocols.push_back(kind);
            }
            if (result.protocols.empty())
                return need("at least one protocol");
        } else if (name == "--threads") {
            if (!cursor.value(&value))
                return need("a comma list of thread counts");
            result.threads.clear();
            for (const std::string &part : splitCommas(value)) {
                std::uint64_t count = 0;
                if (!parseUnsigned(part, &count) || count == 0
                    || count > 256)
                    return need("thread counts in [1, 256]");
                result.threads.push_back(static_cast<unsigned>(count));
            }
            if (result.threads.empty())
                return need("at least one thread count");
        } else if (name == "--channels") {
            std::uint64_t channels = 0;
            if (!cursor.value(&value)
                || !parseUnsigned(value, &channels) || channels == 0
                || channels > 64)
                return need("a channel count in [1, 64]");
            result.channels = static_cast<unsigned>(channels);
        } else if (name == "--reqs") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.reqs)
                || result.reqs == 0)
                return need("a positive integer");
        } else if (name == "--seed") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.seed))
                return need("an integer");
            result.seedSet = true;
        } else if (name == "--json") {
            if (!cursor.value(&value))
                return need("a path");
            result.jsonPath = value;
        } else if (name == "--before") {
            if (!cursor.value(&value))
                return need("a path");
            result.beforePath = value;
        } else {
            *error = "unknown flag '" + name + "' (try --help)";
            return false;
        }
    }
    *options = result;
    return true;
}

/**
 * Restart the kernel's peak-RSS mark (VmHWM) at the current RSS, so the
 * next peakRssMb() covers one design point rather than the process
 * lifetime. The first point needs no restart: the mark then covers only
 * start-up, which holds less than any point. So a run of one point
 * reads the kernel's mark without writing /proc/self/clear_refs, and a
 * point run alone reads no heap that an earlier point freed. A no-op
 * where /proc/self/clear_refs does not exist.
 */
void
resetPeakRss()
{
    static bool first = true;
    if (first) {
        first = false;
        return;
    }
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * Peak RSS since the last resetPeakRss(), in MiB: VmHWM from
 * /proc/self/status (KiB). Falls back to the lifetime ru_maxrss (KiB
 * on Linux) where /proc is unavailable.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Host-side measurements for one design point. */
struct HostSpeed
{
    double wallSeconds = 0.0;
    double simCyclesPerSecond = 0.0;
    double requestsPerSecond = 0.0;
    double allocsPerRequest = 0.0;
    double peakRssMb = 0.0;
};

/**
 * Run one point to completion, wall-timing the post-warmup segment so
 * the host numbers cover the same window as the simulated
 * measuredCycles/measuredRequests.
 */
RunMetrics
runPoint(ProtocolKind kind, const SystemConfig &config, HostSpeed *speed)
{
    resetPeakRss();
    auto session = makeSession(kind, Workload::Random, config);
    const std::uint64_t warmup_served = static_cast<std::uint64_t>(
        config.totalRequests * config.warmupFraction);

    while (!session->done() && session->served() < warmup_served)
        session->step();

    const auto t0 = std::chrono::steady_clock::now();
    const unsigned long long allocs0 = heapAllocationCount();
    while (!session->done())
        session->step();
    session->drain();
    const unsigned long long allocs1 = heapAllocationCount();
    const auto t1 = std::chrono::steady_clock::now();

    const RunMetrics metrics = session->snapshot();
    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();
    speed->wallSeconds = seconds;
    if (seconds > 0.0) {
        speed->simCyclesPerSecond =
            static_cast<double>(metrics.measuredCycles) / seconds;
        speed->requestsPerSecond =
            static_cast<double>(metrics.measuredRequests) / seconds;
    }
    if (metrics.measuredRequests > 0) {
        speed->allocsPerRequest =
            static_cast<double>(allocs1 - allocs0)
            / static_cast<double>(metrics.measuredRequests);
    }
    // This point's own peak (set-up included): the mark was reset
    // before its session was built.
    speed->peakRssMb = peakRssMb();
    return metrics;
}

/**
 * Pull "speed.*" derived keys out of an earlier document as
 * "before.speed.*" and compute "speedup.<id>" for every id both runs
 * measured.
 */
bool
importBefore(const std::string &path,
             std::map<std::string, double> *derived, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open --before file '" + path + "'";
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    JsonValue document;
    if (!JsonValue::parse(buffer.str(), &document, error)) {
        *error = path + ":" + *error;
        return false;
    }
    const JsonValue *before = document.find("derived");
    if (before == nullptr || !before->isObject()) {
        *error = "--before file '" + path + "' has no derived object";
        return false;
    }
    for (const auto &[key, value] : before->members()) {
        if (key.rfind("speed.", 0) != 0 || !value.isNumber())
            continue;
        (*derived)["before." + key] = value.number();
    }

    static const std::string kAfterSuffix = ".requests_per_second";
    for (const auto &[key, value] : *derived) {
        if (key.rfind("speed.", 0) != 0)
            continue;
        if (key.size() < kAfterSuffix.size()
            || key.compare(key.size() - kAfterSuffix.size(),
                           kAfterSuffix.size(), kAfterSuffix)
                   != 0)
            continue;
        const auto old = derived->find("before." + key);
        if (old == derived->end() || old->second <= 0.0)
            continue;
        const std::string id = key.substr(
            6, key.size() - 6 - kAfterSuffix.size());
        (*derived)["speedup." + id] = value / old->second;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    SpeedOptions options;
    std::string error;
    if (!parseSpeedArgs(argc - 1, argv + 1, &options, &error)) {
        std::fprintf(stderr, "bench_sim_speed: %s\n", error.c_str());
        usage(argv[0]);
        return 2;
    }

    std::vector<RunRecord> records;
    std::map<std::string, double> derived;

    std::printf("%-24s%14s%14s%14s%12s%10s\n", "point", "req/kcyc",
                "sim-kcyc/s", "req/s", "allocs/req", "rss-MiB");
    for (const ProtocolKind kind : options.protocols) {
        for (const unsigned log2_blocks : options.sizes) {
        for (const unsigned sim_threads : options.threads) {
            SystemConfig config;
            config.protocol.numBlocks = 1ull << log2_blocks;
            if (options.channels != 0)
                config.dram.org.channels = options.channels;
            if (options.reqs != 0)
                config.totalRequests = options.reqs;
            if (options.seedSet)
                config.seed = options.seed;
            config.simThreads = sim_threads;
            config = normalizedProtocolConfig(kind, config);

            RunRecord record;
            record.point.index = records.size();
            record.point.kind = kind;
            record.point.workload = Workload::Random;
            record.point.config = config;
            record.point.id = std::string(protocolShortName(kind)) + "/b"
                + std::to_string(log2_blocks);
            if (options.channels != 0)
                record.point.id += "/c"
                    + std::to_string(options.channels);
            if (sim_threads > 1)
                record.point.id += "/t" + std::to_string(sim_threads);

            HostSpeed speed;
            record.metrics = runPoint(kind, config, &speed);

            const std::string prefix = "speed." + record.point.id + ".";
            derived[prefix + "wall_seconds"] = speed.wallSeconds;
            derived[prefix + "sim_cycles_per_second"] =
                speed.simCyclesPerSecond;
            derived[prefix + "requests_per_second"] =
                speed.requestsPerSecond;
            derived[prefix + "heap_allocs_per_request"] =
                speed.allocsPerRequest;
            derived[prefix + "peak_rss_mb"] = speed.peakRssMb;

            std::printf("%-24s%14.3f%14.1f%14.1f%12.1f%10.1f\n",
                        record.point.id.c_str(),
                        record.metrics.requestsPerKilocycle,
                        speed.simCyclesPerSecond / 1000.0,
                        speed.requestsPerSecond, speed.allocsPerRequest,
                        speed.peakRssMb);
            records.push_back(std::move(record));
        }
        }
    }

    if (!options.beforePath.empty()) {
        if (!importBefore(options.beforePath, &derived, &error)) {
            std::fprintf(stderr, "bench_sim_speed: %s\n", error.c_str());
            return 2;
        }
        for (const auto &[key, value] : derived) {
            if (key.rfind("speedup.", 0) == 0)
                std::printf("%-40s%8.2fx\n", key.c_str(), value);
        }
    }

    bool ok = true;
    if (!options.jsonPath.empty()) {
        const HostInfo host = HostInfo::probe();
        const std::string doc = MetricsJson::document(
            "bench_sim_speed", records, derived, &host);
        ok = MetricsJson::writeFile(options.jsonPath, doc);
        if (!ok)
            std::fprintf(stderr,
                         "bench_sim_speed: cannot write '%s'\n",
                         options.jsonPath.c_str());
    }

    std::vector<std::string> problems;
    if (!sanityCheck(records, &problems)) {
        ok = false;
        for (const std::string &problem : problems)
            std::fprintf(stderr, "bench_sim_speed: SANITY: %s\n",
                         problem.c_str());
    }
    return ok ? 0 : 1;
}
