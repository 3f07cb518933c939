/**
 * @file
 * Figure 10 regeneration — the headline result. End-to-end speedup of
 * RingORAM, PageORAM, PrORAM (best prefetch length w/ Fat Tree),
 * IR-ORAM, Palermo-SW, Palermo, and Palermo+Prefetch (same pf as
 * PrORAM's pick) over the PathORAM baseline, across the Table II
 * workload mix, with the geometric mean.
 *
 * Paper bars (gmean): Ring 1.1x, Page 1.2x, PrORAM 1.7x, IR 1.1x,
 * Palermo-SW 1.2x, Palermo 2.4x, Palermo+Prefetch 3.1x.
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"
#include "common/stats.hh"
#include "sim/experiment.hh"

using namespace palermo;
using namespace palermo::bench;

namespace {

std::string
pointId(const char *proto, Workload workload, unsigned pf = 0)
{
    std::string id = std::string(proto) + "/" + workloadName(workload);
    if (pf)
        id += "/pf=" + std::to_string(pf);
    return id;
}

/** PrORAM config at a forced prefetch length (Fig. 10 setup). */
SystemConfig
prConfig(const SystemConfig &base, unsigned pf)
{
    SystemConfig c = base;
    c.protocol.prefetchLen = pf;
    c.protocol.fatTree = true;
    c.protocol.throttle = true;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Harness harness(argc, argv, "bench_fig10");
    SystemConfig config = SystemConfig::benchDefault();
    banner("Fig. 10 -- end-to-end speedup over PathORAM (Table II mix)",
           "gmean: Ring 1.1x Page 1.2x PrORAM 1.7x IR 1.1x "
           "Palermo-SW 1.2x Palermo 2.4x Palermo+Pf 3.1x",
           config);

    // Batch 1: the PathORAM baselines plus PrORAM's prefetch-length
    // probe grid (the paper sweeps pf per workload and keeps the best).
    for (Workload workload : allWorkloads()) {
        harness.add(ProtocolKind::PathOram, workload, config,
                    pointId(protocolShortName(ProtocolKind::PathOram),
                            workload));
        // Aggressive prefetch lengths overflow PrORAM's stash — the
        // stash-pressure behavior the paper criticizes (§III-B, Fig. 4)
        // — so the probe grid is exempt from the overflow gate.
        for (unsigned pf : {2u, 4u, 8u})
            harness.add(ProtocolKind::PrOram, workload,
                        prConfig(config, pf), pointId("pr", workload, pf),
                        /*allow_stash_overflow=*/true);
    }
    harness.run();

    std::map<Workload, unsigned> best_pf;
    for (Workload workload : allWorkloads()) {
        const RunMetrics &base = harness.metrics(pointId("path", workload));
        unsigned best = 2;
        double best_speedup = 0.0;
        for (unsigned pf : {2u, 4u, 8u}) {
            const double speedup = speedupOver(
                base, harness.metrics(pointId("pr", workload, pf)));
            if (speedup > best_speedup) {
                best_speedup = speedup;
                best = pf;
            }
        }
        best_pf[workload] = best;
    }

    // The non-baseline bars, straight from the protocol table's Fig. 10
    // order: adding a protocol to the table adds its bar here.
    std::vector<ProtocolKind> bars;
    for (ProtocolKind kind : allProtocolKinds())
        if (kind != ProtocolKind::PathOram)
            bars.push_back(kind);

    // Batch 2: every remaining Fig. 10 bar. Palermo+Prefetch uses the
    // pf PrORAM picked, so both see identical LLC-miss traffic.
    for (Workload workload : allWorkloads()) {
        for (ProtocolKind kind : bars) {
            if (kind == ProtocolKind::PrOram)
                continue; // Probed in batch 1.
            SystemConfig point_config = config;
            unsigned pf = 0;
            if (kind == ProtocolKind::PalermoPrefetch) {
                pf = best_pf[workload];
                point_config.protocol.prefetchLen = pf;
            }
            harness.add(kind, workload, point_config,
                        pointId(protocolShortName(kind), workload, pf));
        }
    }
    harness.run();

    std::printf("\n%-10s", "workload");
    for (ProtocolKind kind : bars)
        std::printf("%12s", protocolShortName(kind));
    std::printf("%8s\n", "pf");

    std::map<std::string, std::vector<double>> speedups;
    double palermo_misses_per_s = 0.0;
    double ring_misses_per_s = 0.0;

    for (Workload workload : allWorkloads()) {
        const RunMetrics &path_base =
            harness.metrics(pointId("path", workload));
        const unsigned pf = best_pf[workload];
        std::printf("%-10s", workloadName(workload));
        for (ProtocolKind kind : bars) {
            const char *proto = protocolShortName(kind);
            std::string id = pointId(proto, workload);
            if (kind == ProtocolKind::PrOram
                || kind == ProtocolKind::PalermoPrefetch)
                id = pointId(proto, workload, pf);
            const RunMetrics &m = harness.metrics(id);
            const double speedup = speedupOver(path_base, m);
            speedups[proto].push_back(speedup);
            std::printf("%11.2fx", speedup);
        }
        std::printf("%8u\n", pf);
        palermo_misses_per_s +=
            harness
                .metrics(pointId(
                    protocolShortName(ProtocolKind::Palermo), workload))
                .missesPerSecond
            / 10;
        ring_misses_per_s +=
            harness
                .metrics(pointId(
                    protocolShortName(ProtocolKind::RingOram), workload))
                .missesPerSecond
            / 10;
    }

    std::printf("%-10s", "gmean");
    for (ProtocolKind kind : bars) {
        const char *proto = protocolShortName(kind);
        const double gm = geomean(speedups[proto]);
        harness.derived(std::string("gmean/") + proto, gm);
        std::printf("%11.2fx", gm);
    }
    std::printf("\n");

    std::printf("\nabsolute throughput (paper: Palermo 3.8E6, RingORAM "
                "1.7E6 misses/s on the full testbed)\n");
    std::printf("Palermo : %.2e LLC misses/s\n", palermo_misses_per_s);
    std::printf("RingORAM: %.2e LLC misses/s\n", ring_misses_per_s);
    std::printf("Palermo/RingORAM = %.2fx (paper: 2.8x)\n",
                palermo_misses_per_s / ring_misses_per_s);
    harness.derived("misses_per_s/palermo", palermo_misses_per_s);
    harness.derived("misses_per_s/ring", ring_misses_per_s);
    harness.derived("palermo_over_ring",
                    palermo_misses_per_s / ring_misses_per_s);
    return harness.finish();
}
