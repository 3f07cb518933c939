/**
 * @file
 * Oblivious LLM token-table serving: the paper's introduction scenario.
 * A GPT-2-style decode loop looks up token embeddings in outsourced
 * memory; without ORAM the bus trace reconstructs the prompt. This
 * example serves the llm workload through RingORAM and Palermo, compares
 * decode throughput, and shows the timing side channel carries ~zero
 * information about whether a token was recently used (stash hit).
 * The closing section serves the same table through the src/service
 * layer as a batch of closed-loop decode streams — the serving-system
 * view that `palermo_scenario --sweep` turns into saturation curves.
 *
 * Build & run:  ./build/examples/llm_serving
 */

#include <cstdio>

#include "common/log.hh"
#include "common/rng.hh"
#include "security/mutual_info.hh"
#include "service/kv_service.hh"
#include "sim/experiment.hh"

using namespace palermo;

int
main()
{
    setVerbose(false);
    SystemConfig config;
    config.protocol.numBlocks = 1 << 16; // 4 MB token feature table.
    config.protocol.treetopBytes = {32 * 1024, 8 * 1024, 4 * 1024};
    config.totalRequests = 1500;

    std::printf("oblivious token-table serving (llm workload, %llu-line "
                "table)\n\n",
                (unsigned long long)config.protocol.numBlocks);

    const RunMetrics ring =
        runExperiment(ProtocolKind::RingOram, Workload::Llm, config);
    const RunMetrics palermo =
        runExperiment(ProtocolKind::Palermo, Workload::Llm, config);

    // Embedding rows are 8 lines; Fig. 13 says row-sized prefetch is
    // the sweet spot for embedding workloads.
    SystemConfig pf_config = config;
    pf_config.protocol.prefetchLen = 8;
    const RunMetrics prefetch = runExperiment(
        ProtocolKind::PalermoPrefetch, Workload::Llm, pf_config);

    std::printf("%-22s%16s%14s%12s\n", "design", "misses/s",
                "bw-util%", "speedup");
    std::printf("%-22s%16.3e%14.1f%12s\n", "RingORAM",
                ring.missesPerSecond, ring.bwUtilization * 100, "1.00x");
    std::printf("%-22s%16.3e%14.1f%11.2fx\n", "Palermo",
                palermo.missesPerSecond, palermo.bwUtilization * 100,
                speedupOver(ring, palermo));
    std::printf("%-22s%16.3e%14.1f%11.2fx\n", "Palermo+Prefetch(8)",
                prefetch.missesPerSecond, prefetch.bwUtilization * 100,
                speedupOver(ring, prefetch));

    std::printf("\ntiming side channel (Palermo):\n");
    const double mi = palermo.samples.empty()
        ? 0.0 : mutualInformationOf(palermo.samples);
    std::printf("  response latency p50/p90: %.0f / %.0f cycles\n",
                palermo.latency.quantile(0.5),
                palermo.latency.quantile(0.9));
    std::printf("  mutual information (Eq. 1): %.6f bits\n", mi);
    std::printf("  -> near zero: an attacker timing the bus learns "
                "essentially nothing about which tokens the prompt\n"
                "     reuses (the estimate converges to 0 with sample "
                "count; see EXPERIMENTS.md on Fig. 9).\n");

    // Serving-system view: four concurrent decode streams, each
    // issuing its next embedding lookup the moment the previous one
    // returns — a closed loop over ObliviousKvService, so per-token
    // latency includes queueing on the shared ORAM.
    ServiceConfig svc_config;
    svc_config.system = config;
    svc_config.system.totalRequests = 800;
    svc_config.system.warmupFraction = 0.0;
    svc_config.queuePolicy = QueuePolicy::Block;
    ObliviousKvService service(svc_config);

    ZipfSampler tokens(1 << 16, 0.99, 21); // Token popularity skew.
    const unsigned streams = 4;
    std::uint64_t issued = 0, target = 800;
    for (; issued < streams; ++issued)
        service.offer(0, tokens.sample(), false, issued, 0);
    while (service.completedTotal() < target) {
        const std::uint64_t done = service.step(1);
        for (std::uint64_t i = 0; i < done && issued < target; ++i, ++issued)
            service.offer(0, tokens.sample(), false, issued,
                          service.now());
    }
    service.drainAll();

    const ServiceSnapshot snap = service.snapshot();
    std::printf("\nserved as %u closed-loop decode streams "
                "(src/service):\n",
                streams);
    std::printf("  decode throughput %.3f tokens/kilocycle, per-token "
                "p50/p99 %.0f/%.0f cycles\n",
                snap.achievedPerKilocycle,
                snap.global.latency.quantile(0.50),
                snap.global.latency.quantile(0.99));
    std::printf("sweep stream counts and arrival rates with "
                "palermo_scenario --sweep (tools/scenarios/"
                "saturation-closed.json).\n");
    return 0;
}
