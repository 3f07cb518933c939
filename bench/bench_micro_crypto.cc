/**
 * @file
 * google-benchmark micros for the crypto substrate: Speck block
 * throughput and PRF evaluation, the cipher call under every default
 * position-map leaf and tenant slice.
 */

#include <benchmark/benchmark.h>

#include "bench_micro_util.hh"

#include "crypto/prf.hh"
#include "crypto/speck.hh"

using namespace palermo;

namespace {

void
BM_SpeckEncrypt(benchmark::State &state)
{
    const Speck128 cipher({1, 2});
    Speck128::Block block = {3, 4};
    for (auto _ : state) {
        block = cipher.encrypt(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SpeckEncrypt);

void
BM_PrfEval(benchmark::State &state)
{
    const Prf prf(7);
    std::uint64_t x = 0;
    for (auto _ : state) {
        x = prf.evalMod(x + 1, 1 << 24);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_PrfEval);

} // namespace

int
main(int argc, char **argv)
{
    return palermo::bench::microMain(argc, argv);
}
