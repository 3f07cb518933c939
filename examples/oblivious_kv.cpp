/**
 * @file
 * Oblivious key-value store: the paper's Redis/Signal motivation. A
 * small KV layer on top of Palermo where the cloud (DRAM) only ever
 * sees uniformly random tree paths — demonstrated by collecting the
 * attacker-visible leaf sequence for two very different key workloads
 * and showing both pass the uniformity test.
 *
 * Part two serves the same store through the real subsystem this
 * prototype grew into — src/service's ObliviousKvService — where the
 * full timing stack (queue, controller, DRAM) prices every GET/PUT
 * and two tenants share one ORAM without sharing a namespace. The
 * production-shaped driver around that layer is tools/palermo_scenario.
 *
 * Build & run:  ./build/examples/oblivious_kv
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "crypto/prf.hh"
#include "oram/palermo.hh"
#include "security/uniformity.hh"
#include "service/kv_service.hh"

using namespace palermo;

namespace {

/** A tiny oblivious KV store: keys hash to protected lines. */
class ObliviousKv
{
  public:
    explicit ObliviousKv(std::uint64_t capacity_lines)
        : hasher_(0x6b657973656564ull), proto_(makeConfig(capacity_lines)),
          oram_(proto_)
    {
    }

    void put(const std::string &key, std::uint64_t value)
    {
        accessLine(lineOf(key), true, value);
    }

    std::uint64_t get(const std::string &key)
    {
        return accessLine(lineOf(key), false, 0);
    }

    /** Attacker's view: the data-tree leaves read so far. */
    const std::vector<Leaf> &observedLeaves() const { return leaves_; }
    std::uint64_t numLeaves() const
    {
        return oram_.hierarchy().dataLeaves();
    }

  private:
    static ProtocolConfig makeConfig(std::uint64_t lines)
    {
        ProtocolConfig config;
        config.numBlocks = lines;
        config.treetopBytes = {8192, 4096, 2048};
        return config;
    }

    BlockId lineOf(const std::string &key)
    {
        std::uint64_t h = 1469598103934665603ull;
        for (char c : key)
            h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
        return hasher_.evalMod(h, proto_.numBlocks);
    }

    std::uint64_t accessLine(BlockId line, bool write,
                             std::uint64_t value)
    {
        const auto ids = oram_.decompose(line);
        for (unsigned level = kHierLevels; level-- > 0;) {
            const LevelPlan plan = oram_.beginLevel(level, ids[level]);
            if (level == kLevelData)
                leaves_.push_back(plan.oldLeaf);
        }
        return oram_.finishData(line, write, value);
    }

    Prf hasher_;
    ProtocolConfig proto_;
    PalermoOram oram_;
    std::vector<Leaf> leaves_;
};

} // namespace

int
main()
{
    // Workload A: heavily skewed GETs of one hot key (a user's contact
    // lookups). Workload B: uniform scans. If the memory trace leaked,
    // these would look completely different to the cloud.
    ObliviousKv hot_store(1 << 14);
    Rng rng(7);
    for (int i = 0; i < 200; ++i)
        hot_store.put("user:" + std::to_string(i), i);
    for (int i = 0; i < 3000; ++i) {
        const bool hot = rng.chance(0.8);
        hot_store.get("user:"
                      + std::to_string(hot ? 7 : rng.range(200)));
    }

    ObliviousKv scan_store(1 << 14);
    for (int i = 0; i < 200; ++i)
        scan_store.put("user:" + std::to_string(i), i);
    for (int i = 0; i < 3000; ++i)
        scan_store.get("user:" + std::to_string(i % 200));

    const ChiSquareResult hot_result = leafUniformity(
        hot_store.observedLeaves(), hot_store.numLeaves());
    const ChiSquareResult scan_result = leafUniformity(
        scan_store.observedLeaves(), scan_store.numLeaves());
    const double hot_corr =
        serialCorrelation(hot_store.observedLeaves());

    std::printf("oblivious KV store over Palermo (%llu-line space)\n\n",
                (unsigned long long)(1 << 14));
    std::printf("workload A (80%% traffic on one hot key):\n");
    std::printf("  leaf chi-square %.1f vs threshold %.1f -> %s\n",
                hot_result.statistic, hot_result.threshold,
                hot_result.uniform ? "UNIFORM" : "SKEWED");
    std::printf("  lag-1 leaf correlation: %+.4f (~0 means remaps are "
                "independent)\n",
                hot_corr);
    std::printf("workload B (uniform scan):\n");
    std::printf("  leaf chi-square %.1f vs threshold %.1f -> %s\n",
                scan_result.statistic, scan_result.threshold,
                scan_result.uniform ? "UNIFORM" : "SKEWED");
    std::printf("\nboth traces are statistically uniform: the cloud "
                "cannot tell the hot-key workload from the scan.\n");

    // Functional sanity for the skeptical reader.
    ObliviousKv check(1 << 12);
    check.put("alice", 111);
    check.put("bob", 222);
    std::printf("\nget(alice) = %llu, get(bob) = %llu\n",
                (unsigned long long)check.get("alice"),
                (unsigned long long)check.get("bob"));

    // Part two: the same idea as a served system. ObliviousKvService
    // runs the full timing stack, so responses have latencies in DRAM
    // cycles, and two tenants get structurally disjoint namespaces.
    ServiceConfig svc_config;
    svc_config.system.protocol.numBlocks = 1 << 12;
    svc_config.system.protocol.treetopBytes = {8192, 4096, 2048};
    svc_config.system.dram.org.rows = 1u << 10;
    svc_config.system.totalRequests = 400;
    svc_config.system.warmupFraction = 0.0;
    svc_config.tenants = 2;
    svc_config.queuePolicy = QueuePolicy::Block;
    ObliviousKvService service(svc_config);

    const auto fnv = [](const std::string &text) {
        std::uint64_t h = 1469598103934665603ull;
        for (char c : text)
            h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
        return h;
    };
    Rng traffic(11);
    for (int i = 0; i < 400; ++i) {
        const unsigned tenant = i & 1; // Interleave both tenants.
        const std::string key =
            "user:" + std::to_string(traffic.range(200));
        while (service.offer(tenant, fnv(key), traffic.chance(0.1), i,
                             service.now())
               == Admission::WouldBlock)
            service.step(1); // Bounded queue: wait out backpressure.
    }
    service.drainAll();

    const ServiceSnapshot snap = service.snapshot();
    std::printf("\nserved through src/service (2 tenants, full timing "
                "stack):\n");
    std::printf("  throughput %.3f req/kilocycle, queue high-water "
                "%zu/%zu\n",
                snap.achievedPerKilocycle, snap.queueHighWatermark,
                snap.queueCapacity);
    std::printf("  latency p50/p99: %.0f/%.0f cycles\n",
                snap.global.latency.quantile(0.50),
                snap.global.latency.quantile(0.99));
    for (std::size_t t = 0; t < snap.perTenant.size(); ++t)
        std::printf("  tenant %zu: %llu completed, p99 %.0f cycles\n",
                    t,
                    (unsigned long long)snap.perTenant[t].completed,
                    snap.perTenant[t].latency.quantile(0.99));
    std::printf("sweep this with tools/palermo_scenario "
                "tools/scenarios/saturation-open.json --sweep 1,2,4.\n");
    return 0;
}
