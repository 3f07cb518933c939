/**
 * @file
 * Experiment helpers over SimSession. No protocol is named here: the
 * session builds its controller through the protocol table, so this
 * file stays closed to change when a new protocol lands.
 */

#include "sim/experiment.hh"

#include "common/log.hh"

namespace palermo {

std::unique_ptr<Frontend>
makeFrontend(Workload workload, const SystemConfig &config)
{
    auto trace = makeTrace(workload, config.protocol.numBlocks,
                           mix64(config.seed ^ 0x74726163ull));
    return std::make_unique<Frontend>(
        std::move(trace), config.totalRequests, config.constantRate,
        config.issueInterval, /*demand_probability=*/0.95, config.seed);
}

std::unique_ptr<SimSession>
makeSession(ProtocolKind kind, Workload workload,
            const SystemConfig &config)
{
    return std::make_unique<SimSession>(kind, config,
                                        makeFrontend(workload, config));
}

RunMetrics
runExperiment(ProtocolKind kind, Workload workload,
              const SystemConfig &config)
{
    return makeSession(kind, workload, config)->finish();
}

double
speedupOver(const RunMetrics &baseline, const RunMetrics &metrics)
{
    palermo_assert(baseline.requestsPerKilocycle > 0.0);
    return metrics.requestsPerKilocycle / baseline.requestsPerKilocycle;
}

} // namespace palermo
