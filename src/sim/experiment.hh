/**
 * @file
 * Experiment conveniences over the protocol table and SimSession:
 * build a frontend / ready-to-run session for a design point, or run
 * one to completion in a single call. The controller itself comes from
 * buildProtocolController() (sim/protocol_registry.hh).
 */

#ifndef PALERMO_SIM_EXPERIMENT_HH
#define PALERMO_SIM_EXPERIMENT_HH

#include <memory>

#include "sim/session.hh"
#include "sim/system_config.hh"
#include "trace/trace_gen.hh"

namespace palermo {

/** Build the standard LLC-miss frontend for (workload, config). */
std::unique_ptr<Frontend> makeFrontend(Workload workload,
                                       const SystemConfig &config);

/** Build a session with the built-in frontend bound. */
std::unique_ptr<SimSession> makeSession(ProtocolKind kind,
                                        Workload workload,
                                        const SystemConfig &config);

/** Run one experiment to completion (drives a session internally). */
RunMetrics runExperiment(ProtocolKind kind, Workload workload,
                         const SystemConfig &config);

/** Throughput speedup of `metrics` over `baseline`. */
double speedupOver(const RunMetrics &baseline, const RunMetrics &metrics);

} // namespace palermo

#endif // PALERMO_SIM_EXPERIMENT_HH
