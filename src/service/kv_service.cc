/**
 * @file
 * ObliviousKvService: queue pump, completion attribution, and the
 * measured-window statistics boundary.
 */

#include "service/kv_service.hh"

#include "common/log.hh"
#include "sim/protocol_registry.hh"

namespace palermo {

namespace {

/** Normalize once so the tenant map and the session agree on size. */
ServiceConfig
normalized(ServiceConfig config)
{
    config.system =
        normalizedProtocolConfig(config.protocol, config.system);
    return config;
}

ServiceScopeSnapshot
condense(const ServiceStats &stats)
{
    ServiceScopeSnapshot scope;
    scope.offered = stats.offered;
    scope.accepted = stats.accepted;
    scope.rejected = stats.rejected;
    scope.completed = stats.completed;
    scope.latency = stats.latency;
    scope.queueingDelay = stats.queueingDelay;
    return scope;
}

} // namespace

ObliviousKvService::ObliviousKvService(const ServiceConfig &config)
    : config_(normalized(config)),
      tenants_(config_.tenants, config_.system.protocol.numBlocks,
               config_.system.seed),
      session_(config_.protocol, config_.system),
      queue_(config_.queueCapacity, config_.queuePolicy),
      inflight_(&pool_),
      perTenant_(config_.tenants),
      measuring_(config_.warmupCompletions == 0)
{
    palermo_assert(config_.sessionDepth >= 1,
                   "session depth must be at least 1");
}

Admission
ObliviousKvService::offer(unsigned tenant, std::uint64_t key,
                          bool write, std::uint64_t value, Tick arrival)
{
    palermo_assert(tenant < config_.tenants, "tenant out of range");
    ServiceRequest request;
    request.tenant = tenant;
    request.block = tenants_.blockOf(tenant, key);
    request.write = write;
    request.value = value;
    request.arrival = arrival;

    const Admission admission = queue_.offer(request);
    if (admission == Admission::WouldBlock)
        return admission; // Not in the system yet; retry counts once.
    ++global_.offered;
    ++perTenant_[tenant].offered;
    if (admission == Admission::Accepted) {
        ++global_.accepted;
        ++perTenant_[tenant].accepted;
    } else {
        ++global_.rejected;
        ++perTenant_[tenant].rejected;
    }
    return admission;
}

void
ObliviousKvService::pump()
{
    while (!queue_.empty()
           && session_.backlog() < config_.sessionDepth) {
        const ServiceRequest request = queue_.pop();
        const double delay =
            static_cast<double>(session_.now() - request.arrival);
        global_.queueingDelay.sample(delay);
        perTenant_[request.tenant].queueingDelay.sample(delay);
        session_.submit(request.block, request.write, request.value);
        inflight_.push_back(InFlight{request.tenant, request.arrival});
    }
}

std::uint64_t
ObliviousKvService::reap()
{
    const std::uint64_t served = session_.served();
    std::uint64_t completions = served - lastServed_;
    lastServed_ = served;
    const Tick now = session_.now();
    for (std::uint64_t i = 0; i < completions; ++i) {
        palermo_assert(!inflight_.empty(),
                       "completion without an in-flight request");
        const InFlight entry = inflight_.front();
        inflight_.pop_front();
        const double latency = static_cast<double>(now - entry.arrival);
        global_.latency.sample(latency);
        global_.completed += 1;
        perTenant_[entry.tenant].latency.sample(latency);
        perTenant_[entry.tenant].completed += 1;
        ++completedTotal_;
        if (!measuring_
            && completedTotal_ >= config_.warmupCompletions)
            beginMeasurement();
        if (sink_)
            sink_(ServiceCompletion{entry.tenant, entry.arrival, now});
    }
    return completions;
}

void
ObliviousKvService::beginMeasurement()
{
    measuring_ = true;
    measureStart_ = session_.now();
    global_.reset();
    for (ServiceStats &stats : perTenant_)
        stats.reset();
    // Requests already in the system complete inside the window, so
    // credit their admission here — after a full drain the window
    // satisfies accepted == completed exactly (the lost-request gate).
    const auto credit = [&](std::uint32_t tenant) {
        ++global_.offered;
        ++global_.accepted;
        ++perTenant_[tenant].offered;
        ++perTenant_[tenant].accepted;
    };
    for (const InFlight &entry : inflight_)
        credit(entry.tenant);
    queue_.forEach(
        [&](const ServiceRequest &request) { credit(request.tenant); });
}

std::uint64_t
ObliviousKvService::step(std::uint64_t cycles)
{
    std::uint64_t completions = 0;
    while (cycles > 0) {
        pump();
        if (quiescent()) {
            // Nothing can complete: cross the whole gap in one call
            // (the session defers it up to its event horizon).
            session_.step(cycles);
            break;
        }
        session_.step(1);
        --cycles;
        completions += reap();
    }
    return completions;
}

void
ObliviousKvService::drainAll()
{
    // The session's runaway guard bounds this loop; a service that
    // cannot drain is a simulation bug, not a load condition.
    while (!quiescent())
        step(1);
    session_.drain();
}

ServiceSnapshot
ObliviousKvService::snapshot() const
{
    ServiceSnapshot snapshot;
    const Tick now = session_.now();
    snapshot.measuredCycles =
        now > measureStart_ ? now - measureStart_ : 1;
    snapshot.global = condense(global_);
    snapshot.perTenant.reserve(perTenant_.size());
    for (const ServiceStats &stats : perTenant_)
        snapshot.perTenant.push_back(condense(stats));
    snapshot.offeredPerKilocycle = 1000.0
        * static_cast<double>(global_.offered)
        / static_cast<double>(snapshot.measuredCycles);
    snapshot.achievedPerKilocycle = 1000.0
        * static_cast<double>(global_.completed)
        / static_cast<double>(snapshot.measuredCycles);
    snapshot.queueCapacity = queue_.capacity();
    snapshot.queuePolicy = queue_.policy();
    snapshot.queueHighWatermark = queue_.highWatermark();
    return snapshot;
}

} // namespace palermo
