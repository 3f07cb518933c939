/**
 * @file
 * google-benchmark micros for FlatMap vs the node-based
 * std::unordered_map it replaced on the simulator hot path, here a
 * std::pmr::unordered_map whose nodes recycle in a pool resource.
 * Three access patterns at the sizes the simulator actually sees:
 * stash-scale churn (hundreds of entries, insert/erase balanced),
 * posmap-tail-scale lookups (tens of thousands of entries,
 * read-mostly), and the row-want pattern (handfuls of entries, counter
 * bump then erase). Run side by side, the pairs justify — and guard —
 * the flat-layout migration.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory_resource>
#include <unordered_map>

#include "bench_micro_util.hh"

#include "common/flat_map.hh"
#include "common/rng.hh"

using namespace palermo;

namespace {

/** The contender: a node-based map whose nodes recycle in a pool. */
using PooledStdMap =
    std::pmr::unordered_map<std::uint64_t, std::uint64_t,
                            FlatHash<std::uint64_t>>;

/**
 * Stash-scale churn: a bounded working set with balanced put/take, the
 * Stash::index_ access pattern during path eviction.
 */
void
BM_FlatMapChurn(benchmark::State &state)
{
    const std::uint64_t window = static_cast<std::uint64_t>(state.range(0));
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::uint64_t i = 0;
    for (auto _ : state) {
        map.emplace(i % (2 * window), i);
        if (i >= window)
            map.erase((i - window) % (2 * window));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapChurn)->Arg(256)->Arg(4096);

void
BM_StdMapChurn(benchmark::State &state)
{
    const std::uint64_t window = static_cast<std::uint64_t>(state.range(0));
    std::pmr::unsynchronized_pool_resource pool;
    PooledStdMap map(&pool);
    std::uint64_t i = 0;
    for (auto _ : state) {
        map.emplace(i % (2 * window), i);
        if (i >= window)
            map.erase((i - window) % (2 * window));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMapChurn)->Arg(256)->Arg(4096);

/**
 * Read-mostly lookups over a resident table: the posmap-tail and
 * prefetch-filter pattern (every ORAM access probes, few mutate).
 * Half the probes hit, half miss.
 */
void
BM_FlatMapLookup(benchmark::State &state)
{
    const std::uint64_t size = static_cast<std::uint64_t>(state.range(0));
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t k = 0; k < size; ++k)
        map.emplace(2 * k, k);
    Rng rng(1);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        const std::uint64_t *v = map.findValue(rng.range(2 * size));
        sum += v != nullptr ? *v : 0;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapLookup)->Arg(256)->Arg(65536);

void
BM_StdMapLookup(benchmark::State &state)
{
    const std::uint64_t size = static_cast<std::uint64_t>(state.range(0));
    std::pmr::unsynchronized_pool_resource pool;
    PooledStdMap map(&pool);
    for (std::uint64_t k = 0; k < size; ++k)
        map.emplace(2 * k, k);
    Rng rng(1);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        const auto it = map.find(rng.range(2 * size));
        sum += it != map.end() ? it->second : 0;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMapLookup)->Arg(256)->Arg(65536);

/**
 * Counter bump then conditional erase: the Channel::rowWant_ pattern —
 * a small table where every enqueue increments and every dequeue
 * decrements-and-maybe-erases.
 */
void
BM_FlatMapCounter(benchmark::State &state)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    Rng rng(2);
    for (auto _ : state) {
        const std::uint64_t key = rng.range(64);
        ++map[key];
        const std::uint64_t victim = rng.range(64);
        const auto it = map.find(victim);
        if (it != map.end() && --it->second == 0)
            map.erase(it);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapCounter);

void
BM_StdMapCounter(benchmark::State &state)
{
    std::pmr::unsynchronized_pool_resource pool;
    PooledStdMap map(&pool);
    Rng rng(2);
    for (auto _ : state) {
        const std::uint64_t key = rng.range(64);
        ++map[key];
        const std::uint64_t victim = rng.range(64);
        const auto it = map.find(victim);
        if (it != map.end() && --it->second == 0)
            map.erase(it);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMapCounter);

} // namespace

int
main(int argc, char **argv)
{
    return palermo::bench::microMain(argc, argv);
}
