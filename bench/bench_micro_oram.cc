/**
 * @file
 * google-benchmark micros for the ORAM functional layer: plan
 * generation cost per protocol access (the simulator's inner loop) and
 * stash operations.
 */

#include <benchmark/benchmark.h>

#include "bench_micro_util.hh"

#include "common/rng.hh"
#include "oram/palermo.hh"
#include "oram/ring_oram.hh"
#include "oram/stash.hh"

using namespace palermo;

namespace {

ProtocolConfig
benchProto()
{
    ProtocolConfig config;
    config.numBlocks = 1 << 16;
    config.treetopBytes = {32768, 8192, 4096};
    return config;
}

void
BM_RingOramAccessPlan(benchmark::State &state)
{
    RingOram oram(benchProto());
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            oram.access(rng.range(1 << 16), false, 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingOramAccessPlan);

void
BM_PalermoBeginLevel(benchmark::State &state)
{
    PalermoOram oram(benchProto());
    Rng rng(2);
    for (auto _ : state) {
        const BlockId pa = rng.range(1 << 16);
        const auto ids = oram.decompose(pa);
        for (unsigned level = kHierLevels; level-- > 0;)
            benchmark::DoNotOptimize(oram.beginLevel(level, ids[level]));
        oram.finishData(pa, false, 0);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PalermoBeginLevel);

void
BM_StashEligibility(benchmark::State &state)
{
    const OramParams params = OramParams::ring(1 << 16, 16, 27, 20);
    Stash stash(256);
    Rng rng(3);
    for (BlockId b = 0; b < 200; ++b)
        stash.put(b, rng.range(params.numLeaves), 0);
    const NodeId node = params.nodeAt(4, 7);
    // Reused buffer, as the engines call it on their eviction path.
    std::vector<BlockId> chosen;
    for (auto _ : state) {
        stash.eligibleForInto(node, params, 16, kInvalid, &chosen);
        benchmark::DoNotOptimize(chosen.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StashEligibility);

void
BM_StashPutTake(benchmark::State &state)
{
    Stash stash(1024);
    std::uint64_t i = 0;
    for (auto _ : state) {
        stash.put(i % 512, 0, i);
        if (i >= 256)
            benchmark::DoNotOptimize(stash.take((i - 256) % 512));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StashPutTake);

} // namespace

int
main(int argc, char **argv)
{
    return palermo::bench::microMain(argc, argv);
}
