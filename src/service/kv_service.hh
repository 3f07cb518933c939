/**
 * @file
 * ObliviousKvService: a multi-tenant KV serving layer over SimSession.
 *
 * The promotion of examples/oblivious_kv.cpp into a real subsystem:
 * clients present keyed GET/PUT arrivals (stamped with their issue
 * tick), a bounded FIFO queue applies backpressure, the tenant
 * directory resolves keys into disjoint slices of the shared
 * protected space, and the pump feeds the externally driven
 * SimSession at a bounded depth — so the full Palermo timing stack
 * (controller, DRAM, crypto latency) prices every response.
 *
 * Completion attribution: the service matches served-count deltas
 * against its in-flight FIFO, oldest first; no per-request tags cross
 * the controller boundary. That is exact only while the controller
 * retires the real requests it admitted in order, and palermo-pf does
 * not: PalermoController::push counts a prefetch-filter hit or a
 * merged miss as served at admission, while older requests are still
 * in flight, so the oldest request is credited with that completion
 * and its tenant and latency are wrong (ROADMAP item 1 carries request
 * ids through the stack to fix this). End-to-end latency is
 * completion tick minus arrival tick (client-side blocking and
 * queueing included); queueing delay is admission tick minus arrival
 * tick.
 *
 * Everything is deterministic in (config, arrival sequence): stepping
 * happens on the caller's thread, and no wall-clock value enters any
 * statistic.
 */

#ifndef PALERMO_SERVICE_KV_SERVICE_HH
#define PALERMO_SERVICE_KV_SERVICE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory_resource>
#include <vector>

#include "service/request_queue.hh"
#include "service/service_metrics.hh"
#include "service/tenant.hh"
#include "sim/session.hh"

namespace palermo {

/** Everything the serving layer adds on top of a SystemConfig. */
struct ServiceConfig
{
    ProtocolKind protocol = ProtocolKind::Palermo;
    SystemConfig system;

    unsigned tenants = 1;
    std::size_t queueCapacity = 64;
    QueuePolicy queuePolicy = QueuePolicy::Reject;

    /** Requests queued ahead of the controller inside the session. */
    std::size_t sessionDepth = 8;

    /**
     * Completions before the measurement boundary: service statistics
     * reset exactly when the Nth response lands. 0 measures from the
     * first cycle. Size system.totalRequests/warmupFraction so the
     * session's internal warmup agrees (the scenario engine does
     * this).
     */
    std::uint64_t warmupCompletions = 0;
};

/** One attributed response, as seen at the service boundary. */
struct ServiceCompletion
{
    std::uint32_t tenant;
    Tick arrival;    ///< Client-side issue tick.
    Tick completion; ///< Tick the response landed.
};

/** One KV serving instance. */
class ObliviousKvService
{
  public:
    explicit ObliviousKvService(const ServiceConfig &config);

    /** Simulated time (the session's DRAM clock). */
    Tick now() const { return session_.now(); }

    /**
     * Present one arrival. @p arrival is the client-side issue tick
     * (<= now()); it anchors latency and queueing delay even when the
     * Block policy makes the client retry the offer later.
     */
    Admission offer(unsigned tenant, std::uint64_t key, bool write,
                    std::uint64_t value, Tick arrival);

    /**
     * Advance simulated time. Pumps the queue into the session, steps
     * cycle by cycle while responses are in flight (so completion
     * ticks are exact), and skips empty gaps in one call. The session
     * only counts a cycle in which its controller is idle or parked on
     * DRAM reads, so stepping one cycle at a time stays cheap.
     * @return Responses completed during these cycles.
     */
    std::uint64_t step(std::uint64_t cycles = 1);

    /** No queued work and no response in flight. */
    bool quiescent() const
    {
        return queue_.empty() && inflight_.empty();
    }

    /**
     * Run until quiescent (bounded by the session's runaway guard),
     * then settle the session's DRAM tail. Stops admitting nothing —
     * callers stop offering first.
     */
    void drainAll();

    /** Responses delivered since construction (warmup included). */
    std::uint64_t completedTotal() const { return completedTotal_; }

    /**
     * Observe every attributed completion (warmup included), in
     * completion order. Closed-loop sources use this to re-issue;
     * the sink must not call back into the service (it fires inside
     * step()).
     */
    void setCompletionSink(
        std::function<void(const ServiceCompletion &)> sink)
    {
        sink_ = std::move(sink);
    }

    /**
     * Record the attacker-visible data-tree leaf sequence from here
     * on. The trace spans warmup and the measured window alike — a
     * bus observer never stops watching.
     */
    void enableLeafTrace()
    {
        session_.controller().stats().recordLeafTrace = true;
    }

    /** Observed leaf sequence (empty unless enableLeafTrace ran). */
    const std::vector<Leaf> &leafTrace() const
    {
        return session_.controller().stats().leafTrace;
    }

    /** Data-tree leaf count (the trace's alphabet size). */
    std::uint64_t leafSpace() const
    {
        return session_.controller().stats().leafSpace;
    }

    /** Condense the service view (measured window only). */
    ServiceSnapshot snapshot() const;

    /** The simulator view, for the record's "metrics" block. */
    RunMetrics simMetrics() const { return session_.snapshot(); }

    const TenantDirectory &tenants() const { return tenants_; }
    const BoundedRequestQueue &queue() const { return queue_; }
    const ServiceConfig &config() const { return config_; }

  private:
    struct InFlight
    {
        std::uint32_t tenant;
        Tick arrival;
    };

    /** Move queued requests into the session up to sessionDepth. */
    void pump();

    /** Attribute newly served requests to in-flight FIFO entries. */
    std::uint64_t reap();

    /** Begin the measured window: reset stats, stamp the boundary. */
    void beginMeasurement();

    ServiceConfig config_;
    TenantDirectory tenants_;
    SimSession session_;
    BoundedRequestQueue queue_;
    /** Backs inflight_; declared before it. */
    std::pmr::unsynchronized_pool_resource pool_;
    /** Completion-attribution FIFO, pool-backed for the same reason as
     * the admission queue: steady-state serving stays off the heap. */
    std::pmr::deque<InFlight> inflight_;

    std::function<void(const ServiceCompletion &)> sink_;
    ServiceStats global_;
    std::vector<ServiceStats> perTenant_;
    std::uint64_t completedTotal_ = 0;
    std::uint64_t lastServed_ = 0;
    bool measuring_;
    Tick measureStart_ = 0;
};

} // namespace palermo

#endif // PALERMO_SERVICE_KV_SERVICE_HH
