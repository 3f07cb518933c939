/**
 * @file
 * palermo_replay: drive the simulator from an external trace file.
 *
 * The existence proof for the re-entrant SimSession API: no Frontend
 * is bound — this tool reads (op, line) records from a file, feeds
 * them through SimSession::submit() at a bounded queue depth, advances
 * time with step(), and observes metrics mid-run through snapshot().
 * Anything that can produce the trace format (a Sniper dump converter,
 * a production access log scrubber, another simulator) can drive the
 * full Palermo timing stack the same way.
 *
 * Trace format: see src/sim/trace_file.hh (the shared loader). Line
 * indices must fit the protected space (--blocks).
 *
 * Exit status: 0 on success, 1 on sanity-gate or I/O failure, 2 on
 * usage/trace-format errors.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/metrics_json.hh"
#include "sim/protocol_registry.hh"
#include "sim/run_cli.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"
#include "sim/trace_file.hh"

using namespace palermo;

namespace {

/** Stem of the trace path for the JSON point id ("tiny" from .../tiny.trace). */
std::string
traceStem(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        stem.resize(dot);
    return stem;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    ReplayOptions options;
    std::string error;
    if (!parseReplayArgs(argc - 1, argv + 1, &options, &error)) {
        std::fprintf(stderr, "palermo_replay: %s\n\n%s", error.c_str(),
                     replayUsage().c_str());
        return 2;
    }
    if (options.help) {
        std::fputs(replayUsage().c_str(), stdout);
        return 0;
    }
    if (options.listProtocols) {
        std::fputs(protocolListing().c_str(), stdout);
        return 0;
    }
    if (options.tracePath.empty()) {
        std::fprintf(stderr, "palermo_replay: --trace is required\n\n%s",
                     replayUsage().c_str());
        return 2;
    }

    std::vector<FrontendRequest> trace;
    if (!loadTraceFile(options.tracePath, &trace, &error)) {
        std::fprintf(stderr, "palermo_replay: %s\n", error.c_str());
        return 2;
    }

    SystemConfig config = options.baseConfig();
    // The trace defines the run shape: warmup fraction and sampling
    // windows derive from its length, like any other design point.
    config.totalRequests = trace.size();
    config = normalizedProtocolConfig(options.protocol, config);

    for (const FrontendRequest &request : trace) {
        if (request.pa >= config.protocol.numBlocks) {
            std::fprintf(stderr,
                         "palermo_replay: trace line %llu outside the "
                         "%llu-line protected space (--blocks)\n",
                         static_cast<unsigned long long>(request.pa),
                         static_cast<unsigned long long>(
                             config.protocol.numBlocks));
            return 2;
        }
    }

    // Externally driven session: keep at most --depth requests queued
    // ahead of the controller, step one cycle at a time.
    SimSession session(options.protocol, config);
    std::size_t next = 0;
    std::uint64_t next_progress = options.progress;
    const auto wall_start = std::chrono::steady_clock::now();
    while (!session.done()) {
        while (next < trace.size() && session.backlog() < options.depth)
            session.submit(trace[next++]);
        session.step();
        if (options.progress && session.served() >= next_progress) {
            next_progress += options.progress;
            const RunMetrics mid = session.snapshot();
            // Wall-clock throughput alongside simulated time.
            const std::chrono::duration<double> wall =
                std::chrono::steady_clock::now() - wall_start;
            const double wall_rps = wall.count() > 0.0
                ? static_cast<double>(session.served()) / wall.count()
                : 0.0;
            std::fprintf(stderr,
                         "progress: served %llu/%zu  cycles %llu  "
                         "req/kcyc %.3f  wall-req/s %.0f\n",
                         static_cast<unsigned long long>(session.served()),
                         trace.size(),
                         static_cast<unsigned long long>(session.now()),
                         mid.requestsPerKilocycle, wall_rps);
        }
    }
    session.drain();
    const RunMetrics metrics = session.snapshot();

    RunRecord record;
    record.point.kind = options.protocol;
    record.point.config = config;
    record.point.workloadLabel =
        "trace:" + traceStem(options.tracePath);
    record.point.id = std::string(protocolShortName(options.protocol))
        + "/" + record.point.workloadLabel;
    record.metrics = metrics;
    const std::vector<RunRecord> records{record};

    std::FILE *table = options.jsonPath == "-" ? stderr : stdout;
    std::fprintf(table, "%-40s%12s%10s%10s%10s%12s\n", "point",
                 "req/kcyc", "bw-util%", "rowhit%", "lat-p50", "stash");
    char stash[32];
    std::snprintf(stash, sizeof(stash), "%zu/%zu%s", metrics.stashMax,
                  metrics.stashCapacity,
                  metrics.stashOverflowed ? "!" : "");
    std::fprintf(table, "%-40s%12.3f%10.1f%10.1f%10.0f%12s\n",
                 record.point.id.c_str(), metrics.requestsPerKilocycle,
                 metrics.bwUtilization * 100, metrics.rowHitRate * 100,
                 metrics.latency.quantile(0.50), stash);

    bool ok = true;
    if (!options.jsonPath.empty()) {
        const std::string doc =
            MetricsJson::document("palermo_replay", records);
        ok = MetricsJson::writeFile(options.jsonPath, doc);
    }

    std::vector<std::string> problems;
    if (!sanityCheck(records, &problems)) {
        ok = false;
        for (const std::string &problem : problems)
            std::fprintf(stderr, "palermo_replay: SANITY: %s\n",
                         problem.c_str());
    }
    return ok ? 0 : 1;
}
