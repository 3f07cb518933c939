/**
 * @file
 * SimSession cycle loop, warmup boundary, tail drain, and RunMetrics
 * condensation — the decomposed form of the old Simulator::run().
 */

#include "sim/session.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/protocol_registry.hh"

namespace palermo {

namespace {

/**
 * Generous runaway guard: no experiment in this repo needs more. The
 * horizon never passes it, so a starved session defers up to it and
 * then fails in the next real cycle.
 */
constexpr Tick kTickLimit = 2'000'000'000ull;

} // namespace

SimSession::SimSession(ProtocolKind kind, const SystemConfig &config)
    : SimSession(config, buildProtocolController(kind, config))
{
}

SimSession::SimSession(ProtocolKind kind, const SystemConfig &config,
                       std::unique_ptr<Frontend> frontend)
    : SimSession(config, buildProtocolController(kind, config),
                 std::move(frontend))
{
}

SimSession::SimSession(const SystemConfig &config,
                       std::unique_ptr<Controller> controller,
                       std::unique_ptr<Frontend> frontend)
    : config_(config), dram_(std::make_unique<DramSystem>(config.dram)),
      controller_(std::move(controller)), frontend_(std::move(frontend)),
      inbox_(&inboxPool_),
      warmupServed_(static_cast<std::uint64_t>(
          config.totalRequests * config.warmupFraction)),
      window_(std::max<std::uint64_t>(
          1, config.totalRequests / 100)), // Fig. 12 sampling.
      measuring_(warmupServed_ == 0), nextSample_(window_)
{
    palermo_assert(controller_ != nullptr);
}

void
SimSession::submit(const FrontendRequest &request)
{
    palermo_assert(frontend_ == nullptr,
                   "submit() on a session with a bound frontend");
    inbox_.push_back(request);
    // Admission can happen in the next cycle: it runs for real.
    if (controller_->canAccept())
        horizon_ = std::min(horizon_, now());
}

void
SimSession::submit(BlockId pa, bool write, std::uint64_t value,
                   bool dummy)
{
    submit(FrontendRequest{pa, write, value, dummy});
}

void
SimSession::admit(Tick now)
{
    if (frontend_ != nullptr) {
        while (frontend_->wantsIssue(now) && controller_->canAccept()) {
            const FrontendRequest request = frontend_->produce(now);
            controller_->push(request.pa, request.write, request.value,
                              request.dummy);
        }
        return;
    }
    while (!inbox_.empty() && controller_->canAccept()) {
        const FrontendRequest request = inbox_.front();
        inbox_.pop_front();
        controller_->push(request.pa, request.write, request.value,
                          request.dummy);
    }
}

Tick
SimSession::nextHorizon() const
{
    const Tick next = dram_->now();
    const ControllerStats &cs = controller_->stats();
    // A multi-request commit can leave several stash samples (or the
    // warmup flip) pending; those run in real cycles.
    if (cs.served >= nextSample_
        || (!measuring_ && cs.served >= warmupServed_))
        return next;
    Tick horizon = controller_->nextEventAt(next);
    if (horizon <= next)
        return next;
    if (controller_->canAccept()) {
        if (frontend_ != nullptr)
            horizon = std::min(horizon, frontend_->nextIssueAt(next));
        else if (!inbox_.empty())
            return next;
    }
    // An idle controller reads no bus: with no read queued and no
    // completion pending, the DRAM cannot reach it.
    if (!controller_->idle() || !dram_->readQuiescent())
        horizon = std::min(horizon, dram_->visibleHorizon(next));
    return std::min(horizon, kTickLimit);
}

void
SimSession::settle() const
{
    if (deferred_ == 0)
        return;
    const std::uint64_t span = deferred_;
    deferred_ = 0;
    // Cycle t classifies the bus state the tick at t - 1 left.
    const Tick from = dram_->now();
    controller_->tickSpan(span,
                          dram_->busyTicksIn(from - 1, from - 1 + span));
    outstanding_.accumulateExact(dram_->tickWindow(span), span);
}

void
SimSession::runCycle()
{
    settle();
    const Tick now = dram_->now();
    palermo_assert(now < kTickLimit, "simulation runaway");

    // Deliver finished reads.
    for (const Completion &completion : dram_->drainCompletions())
        controller_->onCompletion(completion.tag);

    // Admit new misses.
    admit(now);

    controller_->tick(*dram_);
    dram_->tick();
    outstanding_.accumulate(static_cast<double>(dram_->occupancy()), 1);

    ControllerStats &cs = controller_->stats();
    if (!measuring_ && cs.served >= warmupServed_) {
        measuring_ = true;
        warmupCycles_ = dram_->now();
        dram_->resetStats();
        outstanding_.reset();
        cs.dramCycles = {};
        cs.syncCycles = {};
        cs.latency.reset();
        cs.samples.clear();
    }

    if (cs.served >= nextSample_) {
        nextSample_ += window_;
        Stash &stash = controller_->stashOf(kLevelData);
        stashSamples_.push_back(stash.windowWatermark());
        stash.resetWindowWatermark();
    }
    horizon_ = nextHorizon();
}

void
SimSession::step(std::uint64_t cycles)
{
    while (cycles > 0) {
        const Tick now = this->now();
        if (now < horizon_) {
            const std::uint64_t span =
                std::min<std::uint64_t>(cycles, horizon_ - now);
            deferred_ += span;
            cycles -= span;
            continue;
        }
        runCycle();
        --cycles;
    }
}

void
SimSession::drain()
{
    settle();
    // The tail runs cycle by cycle, so the horizon computed before it
    // no longer holds; the next step() starts with a real cycle.
    horizon_ = 0;
    // Settle the tail so trailing writes/evictions land in stats.
    for (unsigned i = 0;
         i < 4 * config_.dram.timing.tRC && !controller_->idle(); ++i) {
        for (const Completion &completion : dram_->drainCompletions())
            controller_->onCompletion(completion.tag);
        controller_->tick(*dram_);
        dram_->tick();
        outstanding_.accumulate(
            static_cast<double>(dram_->occupancy()), 1);
    }
}

RunMetrics
SimSession::snapshot() const
{
    settle();
    RunMetrics metrics;
    metrics.stashSamples = stashSamples_;

    const ControllerStats &cs = controller_->stats();
    const DramSnapshot snap = dram_->snapshot();
    const std::uint64_t end_cycles = dram_->now();

    metrics.measuredRequests = cs.served
        - std::min<std::uint64_t>(cs.served, warmupServed_);
    metrics.measuredCycles =
        end_cycles > warmupCycles_ ? end_cycles - warmupCycles_ : 1;
    metrics.requestsPerKilocycle = 1000.0
        * static_cast<double>(metrics.measuredRequests)
        / metrics.measuredCycles;
    metrics.missesPerSecond = metrics.requestsPerKilocycle / 1000.0
        * config_.dram.timing.clockGHz * 1e9;

    metrics.bwUtilization = snap.busUtilization();
    metrics.avgOutstanding = outstanding_.mean();
    metrics.rowHitRate = snap.rowHitRate();
    metrics.rowConflictRate = snap.rowConflictRate();
    metrics.avgReadLatency = snap.avgReadLatency;
    metrics.dramReads = snap.reads;
    metrics.dramWrites = snap.writes;
    if (metrics.measuredRequests > 0) {
        metrics.readsPerRequest = static_cast<double>(snap.reads)
            / metrics.measuredRequests;
        metrics.writesPerRequest = static_cast<double>(snap.writes)
            / metrics.measuredRequests;
    }

    metrics.syncFraction = cs.syncFraction();
    for (unsigned level = 0; level < kHierLevels; ++level) {
        metrics.levelDramShare[level] = cs.levelShare(level, true);
        metrics.levelSyncShare[level] = cs.levelShare(level, false);
    }
    metrics.latency = cs.latency;
    metrics.samples = cs.samples;

    const Stash &stash = controller_->stashOf(kLevelData);
    metrics.stashMax = stash.highWatermark();
    metrics.stashCapacity = stash.capacity();
    metrics.stashOverflowed = stash.overflowed();

    metrics.served = cs.served;
    metrics.dummies = cs.dummies;
    metrics.llcHits = cs.llcHits;
    const std::uint64_t oram_requests = cs.served - cs.llcHits
        + cs.dummies;
    metrics.dummyRatio = oram_requests
        ? static_cast<double>(cs.dummies) / oram_requests : 0.0;
    return metrics;
}

RunMetrics
SimSession::finish()
{
    // done() changes only in real cycles, so each pass defers up to
    // the horizon and runs the real cycle there.
    while (!done())
        step(horizon_ > now() ? horizon_ - now() + 1 : 1);
    drain();
    return snapshot();
}

} // namespace palermo
