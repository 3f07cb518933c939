/**
 * @file ObliviousKvService tests: end-to-end serving semantics over
 * the real timing stack — backpressure policies, per-tenant
 * accounting and isolation, the warmup measurement boundary
 * (accepted == completed after a full drain), and byte-determinism
 * of the rendered service snapshot across repeat runs.
 */

#include <gtest/gtest.h>

#include <string>

#include "service/kv_service.hh"
#include "service/service_metrics.hh"
#include "sim/metrics_json.hh"

namespace palermo {
namespace {

ServiceConfig
tinyService(unsigned tenants = 1, std::uint64_t requests = 64)
{
    ServiceConfig config;
    config.system.protocol.numBlocks = 1 << 12;
    config.system.protocol.treetopBytes = {8192, 4096, 2048};
    config.system.dram.org.rows = 1u << 10;
    config.system.totalRequests = requests;
    config.system.warmupFraction = 0.0;
    config.tenants = tenants;
    config.queueCapacity = 8;
    // Block by default so offerBlocking() can push every request
    // through a full queue; the Reject tests override this.
    config.queuePolicy = QueuePolicy::Block;
    config.sessionDepth = 4;
    return config;
}

/** Offer-and-step until the arrival is accepted (Block discipline). */
void
offerBlocking(ObliviousKvService &service, unsigned tenant,
              std::uint64_t key, Tick arrival)
{
    while (service.offer(tenant, key, false, 0, arrival)
           == Admission::WouldBlock)
        service.step(1);
}

TEST(KvServiceTest, ServesEveryAcceptedRequest)
{
    ObliviousKvService service(tinyService(1, 32));
    for (std::uint64_t key = 0; key < 32; ++key)
        offerBlocking(service, 0, key, service.now());
    service.drainAll();

    const ServiceSnapshot snapshot = service.snapshot();
    EXPECT_EQ(service.completedTotal(), 32u);
    EXPECT_EQ(snapshot.global.accepted, 32u);
    EXPECT_EQ(snapshot.global.completed, 32u);
    EXPECT_EQ(snapshot.global.rejected, 0u);
    EXPECT_EQ(snapshot.global.latency.count(), 32u);
    EXPECT_GT(snapshot.global.latency.mean(), 0.0);
    EXPECT_GT(snapshot.achievedPerKilocycle, 0.0);
    EXPECT_TRUE(service.quiescent());
}

TEST(KvServiceTest, RejectPolicyShedsOverload)
{
    ServiceConfig config = tinyService(1, 64);
    config.queueCapacity = 4;
    config.queuePolicy = QueuePolicy::Reject;
    ObliviousKvService service(config);

    // Burst far past queue + session depth at tick 0: the excess must
    // be rejected, never silently dropped or queued.
    std::uint64_t accepted = 0, rejected = 0;
    for (std::uint64_t key = 0; key < 32; ++key) {
        const Admission admission =
            service.offer(0, key, false, 0, 0);
        ASSERT_NE(admission, Admission::WouldBlock);
        (admission == Admission::Accepted ? accepted : rejected) += 1;
    }
    EXPECT_GT(rejected, 0u);
    service.drainAll();

    const ServiceSnapshot snapshot = service.snapshot();
    EXPECT_EQ(snapshot.global.offered, 32u);
    EXPECT_EQ(snapshot.global.accepted, accepted);
    EXPECT_EQ(snapshot.global.rejected, rejected);
    EXPECT_EQ(snapshot.global.completed, accepted);
}

TEST(KvServiceTest, BlockPolicyNeverRejects)
{
    ServiceConfig config = tinyService(1, 48);
    config.queueCapacity = 4;
    config.queuePolicy = QueuePolicy::Block;
    ObliviousKvService service(config);

    for (std::uint64_t key = 0; key < 48; ++key)
        offerBlocking(service, 0, key, service.now());
    service.drainAll();

    const ServiceSnapshot snapshot = service.snapshot();
    EXPECT_EQ(snapshot.global.rejected, 0u);
    EXPECT_EQ(snapshot.global.completed, 48u);
    // The bound held: the queue never grew past its capacity.
    EXPECT_LE(snapshot.queueHighWatermark, 4u);
}

TEST(KvServiceTest, PerTenantAccountingSumsToGlobal)
{
    ObliviousKvService service(tinyService(3, 60));
    for (std::uint64_t i = 0; i < 60; ++i)
        offerBlocking(service, i % 3, i, service.now());
    service.drainAll();

    const ServiceSnapshot snapshot = service.snapshot();
    ASSERT_EQ(snapshot.perTenant.size(), 3u);
    std::uint64_t completed = 0, accepted = 0;
    for (const ServiceScopeSnapshot &tenant : snapshot.perTenant) {
        EXPECT_EQ(tenant.completed, 20u);
        completed += tenant.completed;
        accepted += tenant.accepted;
    }
    EXPECT_EQ(completed, snapshot.global.completed);
    EXPECT_EQ(accepted, snapshot.global.accepted);
}

TEST(KvServiceTest, TenantKeysStayInsideTheirSlices)
{
    ObliviousKvService service(tinyService(4, 16));
    const TenantDirectory &tenants = service.tenants();
    // The same key from different tenants must resolve into each
    // tenant's own slice — isolation is structural, not statistical.
    for (unsigned tenant = 0; tenant < 4; ++tenant) {
        for (std::uint64_t key = 0; key < 64; ++key)
            EXPECT_TRUE(
                tenants.owns(tenant, tenants.blockOf(tenant, key)));
    }
}

TEST(KvServiceTest, WarmupBoundaryBalancesAcceptedAndCompleted)
{
    ServiceConfig config = tinyService(2, 96);
    config.warmupCompletions = 32;
    config.system.totalRequests = 96;
    config.system.warmupFraction = 32.0 / 96.0;
    ObliviousKvService service(config);

    for (std::uint64_t i = 0; i < 96; ++i)
        offerBlocking(service, i % 2, i, service.now());
    service.drainAll();

    const ServiceSnapshot snapshot = service.snapshot();
    // Completions before the boundary are forgotten; requests in
    // flight at the boundary are credited as accepted, so a fully
    // drained window balances exactly.
    EXPECT_EQ(service.completedTotal(), 96u);
    EXPECT_EQ(snapshot.global.completed, 96u - 32u);
    EXPECT_EQ(snapshot.global.accepted, snapshot.global.completed);
    EXPECT_EQ(snapshot.global.latency.count(),
              snapshot.global.completed);
}

TEST(KvServiceTest, LatencyIncludesQueueingDelay)
{
    ServiceConfig config = tinyService(1, 24);
    config.queueCapacity = 24;
    ObliviousKvService service(config);
    for (std::uint64_t key = 0; key < 24; ++key)
        ASSERT_EQ(service.offer(0, key, false, 0, 0),
                  Admission::Accepted);
    service.drainAll();

    const ServiceSnapshot snapshot = service.snapshot();
    // A tick-0 burst makes queueing delay visible: the last-admitted
    // request waited, so max latency strictly exceeds min latency and
    // queueing delay is non-degenerate.
    EXPECT_GT(snapshot.global.queueingDelay.max(), 0.0);
    EXPECT_GT(snapshot.global.latency.max(),
              snapshot.global.latency.min());
    EXPECT_GE(snapshot.global.latency.quantile(0.99),
              snapshot.global.latency.quantile(0.50));
}

/** Render a snapshot to JSON text for byte comparison. */
std::string
renderSnapshot(const ServiceSnapshot &snapshot)
{
    JsonWriter w;
    w.beginObject();
    w.key("service");
    writeServiceSnapshot(w, snapshot);
    w.endObject();
    return w.str();
}

TEST(KvServiceTest, DeterministicAcrossRuns)
{
    const auto run = [] {
        ObliviousKvService service(tinyService(2, 48));
        for (std::uint64_t i = 0; i < 48; ++i)
            offerBlocking(service, i % 2, i * 7, service.now());
        service.drainAll();
        return renderSnapshot(service.snapshot());
    };
    EXPECT_EQ(run(), run()) << "repeat run diverged";
}

} // namespace
} // namespace palermo
