/**
 * @file
 * Allocation-regression gate for the pooled Palermo hot path.
 *
 * This binary replaces the global operator new (common/alloc_count.hh)
 * and counts heap allocations across the steady-state segment of a
 * Palermo run. With session-lifetime pools in place, a steady-state
 * access should hit the heap only on rare pool growth — the budget
 * below is deliberately small so any reintroduced per-access
 * allocation (a by-value plan, a fresh scratch vector, an unpooled
 * map node) fails loudly.
 *
 * The workloads run over a small tree with a warmup long enough to
 * touch every block and grow every pool to its working-set size; the
 * measured segment is the back half.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/alloc_count.hh"
#include "common/rng.hh"
#include "mem/channel.hh"
#include "oram/hierarchy.hh"
#include "oram/palermo.hh"
#include "service/kv_service.hh"
#include "sim/experiment.hh"
#include "sim/protocol_registry.hh"
#include "sim/system_config.hh"

namespace palermo {
namespace {

/** Heap allocations per steady-state request, averaged. */
double
steadyStateAllocsPerRequest(ProtocolKind kind,
                            Workload workload = Workload::Stream,
                            unsigned prefetch_len = 1)
{
    SystemConfig config;
    config.protocol.numBlocks = 1ull << 11; // 2048 blocks.
    config.protocol.prefetchLen = prefetch_len;
    config.totalRequests = 6000;            // Warmup 3000 > numBlocks.
    config.seed = 1;

    auto session = makeSession(kind, workload, config);
    const std::uint64_t warmup_served = static_cast<std::uint64_t>(
        config.totalRequests * config.warmupFraction);
    while (!session->done() && session->served() < warmup_served)
        session->step();

    const unsigned long long before = heapAllocationCount();
    const std::uint64_t served_before = session->served();
    while (!session->done())
        session->step();
    session->drain();
    const unsigned long long after = heapAllocationCount();
    const std::uint64_t requests = session->served() - served_before;

    EXPECT_GT(requests, 0u);
    const double per_request = requests == 0
        ? 0.0
        : static_cast<double>(after - before)
            / static_cast<double>(requests);
    std::printf("%-12s %-7s pf%u steady-state: %llu allocs / %llu "
                "requests = %.3f per request\n",
                protocolShortName(kind), workloadName(workload),
                prefetch_len,
                static_cast<unsigned long long>(after - before),
                static_cast<unsigned long long>(requests), per_request);
    return per_request;
}

TEST(AllocBudget, PalermoSteadyStateStaysPooled)
{
    // Budget: pool growth, latency-sample bookkeeping, and the odd
    // first-touch position-map chunk — but nothing per access. The
    // unpooled baseline sat near 10^2 per request.
    EXPECT_LE(steadyStateAllocsPerRequest(ProtocolKind::Palermo), 2.0);
}

TEST(AllocBudget, PathOramSteadyStateStaysPooled)
{
    EXPECT_LE(steadyStateAllocsPerRequest(ProtocolKind::PathOram), 2.0);
}

TEST(AllocBudget, EveryProtocolStaysPooledOnRandom)
{
    // Random keys reach IR-ORAM's PosMap bypass, whose one-level plans
    // recycle three-level ones, and its on-chip residency check. A
    // steady-state access of any protocol allocates nothing.
    for (ProtocolKind kind : allProtocolKinds())
        EXPECT_LE(steadyStateAllocsPerRequest(kind, Workload::Random), 0.1)
            << protocolShortName(kind);
}

TEST(AllocBudget, PrefetchingPrOramStaysPooled)
{
    // Prefetch hits make zero-level plans and background evictions make
    // one-level plans; both recycle three-level plans and must hand
    // their spare level buffers back instead of dropping them.
    EXPECT_LE(steadyStateAllocsPerRequest(ProtocolKind::PrOram,
                                          Workload::Mcf, 2),
              0.1);
}

/**
 * Same discipline one layer up: a closed-loop client fleet against the
 * full serving stack (admission queue, tenant directory, in-flight
 * attribution FIFO, session pump). With the service deques pool-backed,
 * steady-state serving must not allocate per request either.
 */
double
servedClosedLoopAllocsPerRequest()
{
    constexpr unsigned kConcurrency = 8;

    ServiceConfig config;
    config.protocol = ProtocolKind::Palermo;
    config.system.protocol.numBlocks = 1ull << 11;
    config.system.totalRequests = 6000; // Warmup 3000 > numBlocks.
    config.system.warmupFraction = 0.5;
    config.system.seed = 1;
    config.tenants = 2;
    config.queueCapacity = kConcurrency;
    config.warmupCompletions = 3000;

    ObliviousKvService service(config);
    Rng rng(7);
    const std::uint64_t slice = service.tenants().sliceSize();
    const std::uint64_t target = config.system.totalRequests;
    std::uint64_t issued = 0;
    const auto issue = [&](Tick arrival) {
        const auto tenant =
            static_cast<unsigned>(rng.range(config.tenants));
        const Admission admission =
            service.offer(tenant, rng.range(slice), (issued & 7) == 0,
                          issued, arrival);
        EXPECT_EQ(admission, Admission::Accepted);
        ++issued;
    };

    // Think time zero: keep kConcurrency requests in the system.
    while (issued < kConcurrency)
        issue(0);
    while (service.completedTotal() < config.warmupCompletions) {
        const std::uint64_t done = service.step(1);
        for (std::uint64_t i = 0; i < done && issued < target; ++i)
            issue(service.now());
    }

    const unsigned long long before = heapAllocationCount();
    const std::uint64_t served_before = service.completedTotal();
    while (service.completedTotal() < target) {
        const std::uint64_t done = service.step(1);
        for (std::uint64_t i = 0; i < done && issued < target; ++i)
            issue(service.now());
    }
    service.drainAll();
    const unsigned long long after = heapAllocationCount();
    const std::uint64_t requests = service.completedTotal() - served_before;

    EXPECT_GT(requests, 0u);
    const double per_request = requests == 0
        ? 0.0
        : static_cast<double>(after - before)
            / static_cast<double>(requests);
    std::printf("served       steady-state: %llu allocs / %llu requests "
                "= %.3f per request\n",
                static_cast<unsigned long long>(after - before),
                static_cast<unsigned long long>(requests), per_request);
    return per_request;
}

TEST(AllocBudget, ServedClosedLoopStaysPooled)
{
    // The serving layer must add zero steady-state heap traffic on top
    // of the pooled simulator: the admission queue, the session inbox
    // and the in-flight FIFO recycle their deque chunks through
    // owner-lifetime pools.
    EXPECT_LE(servedClosedLoopAllocsPerRequest(), 0.02);
}

TEST(AllocBudget, PrefillAllocatesPerTreeNotPerBlock)
{
    // Constructing a prefilled hierarchy costs O(levels) allocations
    // per tree (reservations, per-level scratch, overflow-list growth),
    // not one or more per block as a per-block path walk did.
    ProtocolConfig config;
    config.numBlocks = 1ull << 18;
    const unsigned long long before = heapAllocationCount();
    const PalermoOram oram(config);
    const unsigned long long allocs = heapAllocationCount() - before;
    std::printf("prefilled 2^18-block Palermo: %llu allocs\n", allocs);
    EXPECT_EQ(oram.config().numBlocks, config.numBlocks);
    EXPECT_LE(allocs, 256u);
}

TEST(AllocBudget, PrefillHeapBytesPerTreeSlot)
{
    // A tree slot costs one 32-bit block id; payload and leaf are kept
    // once per block, not per slot. Bound the bytes a prefilled
    // 2^18-block Palermo requests per slot, summed over its three
    // trees: a u64 id, payload and leaf in every slot would cost 27 B.
    ProtocolConfig config;
    config.numBlocks = 1ull << 18;
    const unsigned long long before = heapAllocatedBytes();
    const PalermoOram oram(config);
    const unsigned long long bytes = heapAllocatedBytes() - before;
    std::uint64_t slots = 0;
    for (unsigned level = 0; level < kHierLevels; ++level) {
        const OramParams &params = oram.hierarchy().engine(level).params();
        for (unsigned depth = 0; depth < params.levels; ++depth)
            slots += (std::uint64_t{1} << depth) * params.slotsAt(depth);
    }
    const double per_slot =
        static_cast<double>(bytes) / static_cast<double>(slots);
    std::printf("prefilled 2^18-block Palermo: %llu bytes / %llu slots "
                "= %.2f B per slot\n",
                bytes, static_cast<unsigned long long>(slots), per_slot);
    EXPECT_LE(per_slot, 12.0);
}

TEST(AllocBudget, ChannelQueuesNeverReallocate)
{
    // Both request queues are reserved to the queue depth at
    // construction, the row-want map keeps the table it grew to, and
    // the tFAW window and data-beat FIFO recycle through the channel's
    // pool: once one fill and drain has warmed them, filling both
    // queues to the brim and draining them again touches the heap zero
    // times.
    const DramOrg org;
    constexpr unsigned kDepth = 64;
    Channel channel(org, ddr4_3200(), kDepth);
    Tick now = 0;
    const auto fill_and_drain = [&] {
        for (unsigned i = 0; i < kDepth; ++i) {
            DecodedAddr dec{};
            dec.bankGroup = i % org.bankGroups;
            dec.bank = (i / org.bankGroups) % org.banksPerGroup;
            dec.row = i % 5;
            dec.column = i;
            ASSERT_TRUE(channel.enqueue(dec, false, i, now));
            dec.column = i + kDepth; // A different line: no forwarding.
            ASSERT_TRUE(channel.enqueue(dec, true, kDepth + i, now));
        }
        ASSERT_FALSE(channel.canEnqueue(false));
        ASSERT_FALSE(channel.canEnqueue(true));
        while (channel.occupancy() > 0) {
            channel.tick(now++);
            channel.completions().clear();
        }
    };
    fill_and_drain();
    const unsigned long long before = heapAllocationCount();
    fill_and_drain();
    const unsigned long long allocs = heapAllocationCount() - before;
    std::printf("channel refill of %u reads + %u writes: %llu allocs\n",
                kDepth, kDepth, allocs);
    EXPECT_EQ(allocs, 0u);
}

TEST(AllocBudget, PrefetchFilterEvictsWithoutHeap)
{
    // The run-level budgets above stay inside a 2^11-line space, which
    // never fills the 2^15-line LLC filter, so none of them reaches
    // its evict-and-reinsert path. Fill a small filter, then churn it:
    // every insert evicts the LRU line and every hit relinks one, and
    // the list nodes recycle through the filter's pool.
    PrefetchFilter filter(64);
    BlockId line = 0;
    for (; line < 4096; ++line)
        filter.insert(line);
    const unsigned long long before = heapAllocationCount();
    for (unsigned i = 0; i < 100000; ++i, ++line) {
        filter.insert(line);
        filter.hit(line - 10);
    }
    const unsigned long long allocs = heapAllocationCount() - before;
    std::printf("prefetch filter churn of 100000 inserts: %llu allocs\n",
                allocs);
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(filter.size(), 64u);
}

TEST(AllocBudget, CounterCountsThisBinary)
{
    const unsigned long long before = heapAllocationCount();
    auto *leak_free = new int(7);
    const unsigned long long after = heapAllocationCount();
    EXPECT_GT(after, before);
    delete leak_free;
}

} // namespace
} // namespace palermo
