/**
 * @file
 * Differential test for SimSession's event horizon.
 *
 * The oracle, RefLoop, is the session's cycle loop without a horizon:
 * the stack assembled from public parts (buildProtocolController,
 * DramSystem, a Frontend or an inbox), with every cycle run through
 * completion delivery, admission, the controller tick and the DRAM
 * tick, plus the session's warmup flip and stash sampling. SimSession
 * defers the cycles in which a parked or idle controller can only
 * count, and settles them in batches; it must agree with the oracle on
 * the clock, on the tick of every served increment (checked at every
 * step boundary, so at every tick with step(1)), on the controller's
 * cycle counters, on the DramSnapshot and on the occupancy integral.
 *
 * The grid covers all eight protocols; frontend-bound saturated,
 * constant-rate and inbox-fed sessions; step sizes 1, 7 and 1000 with
 * a snapshot() every 50 cycles (each one settles mid-span); and one
 * serial and one simThreads = 2 run of each, whose spans of 8 or more
 * cycles settle through the sharded DramSystem::tickWindow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/experiment.hh"
#include "sim/protocol_registry.hh"

namespace palermo {
namespace {

/** The per-cycle loop SimSession's deferral must reproduce. */
class RefLoop
{
  public:
    RefLoop(ProtocolKind kind, const SystemConfig &config,
            std::unique_ptr<Frontend> frontend)
        : controller_(buildProtocolController(kind, config)),
          dram_(config.dram), frontend_(std::move(frontend)),
          tailCycles_(4 * config.dram.timing.tRC),
          warmupServed_(static_cast<std::uint64_t>(
              config.totalRequests * config.warmupFraction)),
          window_(std::max<std::uint64_t>(1, config.totalRequests / 100)),
          measuring_(warmupServed_ == 0), nextSample_(window_)
    {
    }

    void submit(const FrontendRequest &request)
    {
        inbox_.push_back(request);
    }

    /** One cycle: deliver, admit, tick both halves, account. */
    void cycle()
    {
        const Tick now = dram_.now();
        deliver();
        if (frontend_ != nullptr) {
            while (frontend_->wantsIssue(now) && controller_->canAccept())
                push(frontend_->produce(now));
        } else {
            while (!inbox_.empty() && controller_->canAccept()) {
                push(inbox_.front());
                inbox_.pop_front();
            }
        }
        tick();
        ControllerStats &cs = controller_->stats();
        if (!measuring_ && cs.served >= warmupServed_) {
            measuring_ = true;
            warmupCycles_ = dram_.now();
            dram_.resetStats();
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
    }

    void run(std::uint64_t cycles)
    {
        for (std::uint64_t i = 0; i < cycles; ++i)
            cycle();
    }

    /** SimSession::drain: the tail, no admission, no sampling. */
    void drain()
    {
        for (unsigned i = 0; i < tailCycles_ && !controller_->idle();
             ++i) {
            deliver();
            tick();
        }
    }

    Tick now() const { return dram_.now(); }
    std::size_t backlog() const { return inbox_.size(); }
    const ControllerStats &stats() const { return controller_->stats(); }
    const DramSystem &dram() const { return dram_; }
    double avgOutstanding() const { return outstanding_.mean(); }
    Tick warmupCycles() const { return warmupCycles_; }
    const std::vector<std::size_t> &stashSamples() const
    {
        return stashSamples_;
    }

  private:
    void deliver()
    {
        for (const Completion &completion : dram_.drainCompletions())
            controller_->onCompletion(completion.tag);
    }

    void push(const FrontendRequest &request)
    {
        controller_->push(request.pa, request.write, request.value,
                          request.dummy);
    }

    void tick()
    {
        controller_->tick(dram_);
        dram_.tick();
        outstanding_.accumulate(static_cast<double>(dram_.occupancy()), 1);
    }

    std::unique_ptr<Controller> controller_;
    DramSystem dram_;
    std::unique_ptr<Frontend> frontend_;
    std::deque<FrontendRequest> inbox_;
    unsigned tailCycles_;
    std::uint64_t warmupServed_;
    std::uint64_t window_;
    bool measuring_;
    Tick warmupCycles_ = 0;
    std::uint64_t nextSample_;
    TimeWeighted outstanding_;
    std::vector<std::size_t> stashSamples_;
};

enum class Traffic
{
    Saturated,
    ConstantRate,
    Inbox,
};

const char *
trafficName(Traffic traffic)
{
    switch (traffic) {
      case Traffic::Saturated: return "saturated";
      case Traffic::ConstantRate: return "constant-rate";
      case Traffic::Inbox: return "inbox";
    }
    return "?";
}

SystemConfig
configFor(ProtocolKind kind, Traffic traffic, unsigned sim_threads)
{
    SystemConfig config;
    config.protocol.numBlocks = 1ull << 10;
    config.totalRequests = 60;
    config.seed = 5;
    config.constantRate = traffic == Traffic::ConstantRate;
    config.issueInterval = 150;
    config.simThreads = sim_threads;
    return normalizedProtocolConfig(kind, config);
}

void
expectSameCounters(const ControllerStats &got, const ControllerStats &want)
{
    EXPECT_EQ(got.totalCycles, want.totalCycles);
    EXPECT_EQ(got.idleCycles, want.idleCycles);
    for (unsigned level = 0; level < kHierLevels; ++level) {
        EXPECT_EQ(got.dramCycles[level], want.dramCycles[level])
            << "level " << level;
        EXPECT_EQ(got.syncCycles[level], want.syncCycles[level])
            << "level " << level;
    }
    EXPECT_EQ(got.served, want.served);
    EXPECT_EQ(got.dummies, want.dummies);
    EXPECT_EQ(got.llcHits, want.llcHits);
    EXPECT_EQ(got.issuedReads, want.issuedReads);
    EXPECT_EQ(got.issuedWrites, want.issuedWrites);
}

void
expectSameDram(const DramSnapshot &got, const DramSnapshot &want)
{
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.rowHits, want.rowHits);
    EXPECT_EQ(got.rowMisses, want.rowMisses);
    EXPECT_EQ(got.rowConflicts, want.rowConflicts);
    EXPECT_EQ(got.forwardedReads, want.forwardedReads);
    EXPECT_EQ(got.busBusyTicks, want.busBusyTicks);
    EXPECT_EQ(got.totalTicks, want.totalTicks);
    EXPECT_EQ(got.avgQueueOccupancy, want.avgQueueOccupancy);
    EXPECT_EQ(got.avgReadLatency, want.avgReadLatency);
}

/** Everything observable, compared at one tick. */
void
expectSameState(const SimSession &session, const RefLoop &ref)
{
    ASSERT_EQ(session.now(), ref.now());
    const RunMetrics metrics = session.snapshot();
    expectSameCounters(session.controller().stats(), ref.stats());
    expectSameDram(session.dram().snapshot(), ref.dram().snapshot());
    EXPECT_EQ(metrics.avgOutstanding, ref.avgOutstanding());
    EXPECT_EQ(metrics.stashSamples, ref.stashSamples());
    const Tick measured = ref.now() > ref.warmupCycles()
        ? ref.now() - ref.warmupCycles() : 1;
    EXPECT_EQ(metrics.measuredCycles, measured);
    EXPECT_EQ(session.dram().readQuiescent(), ref.dram().readQuiescent());
    EXPECT_EQ(session.dram().occupancy(), ref.dram().occupancy());
}

/** Drive the session and the oracle in steps of `step` cycles and
 * compare them at every boundary. */
void
runCase(ProtocolKind kind, Traffic traffic, std::uint64_t step,
        unsigned sim_threads)
{
    SCOPED_TRACE(std::string(protocolShortName(kind)) + " "
                 + trafficName(traffic) + " step "
                 + std::to_string(step) + " threads "
                 + std::to_string(sim_threads));
    const SystemConfig config = configFor(kind, traffic, sim_threads);
    const bool inbox = traffic == Traffic::Inbox;
    SimSession session =
        inbox ? SimSession(kind, config)
              : SimSession(kind, config,
                           makeFrontend(Workload::Random, config));
    RefLoop ref(kind, config,
                inbox ? nullptr : makeFrontend(Workload::Random, config));

    // Inbox traffic: a seeded miss stream, topped up to a depth that
    // changes with time, so submits land in the middle of spans.
    Rng rng(config.seed * 131 + 7);
    std::uint64_t submitted = 0;
    Tick next_snapshot = 50;
    while (!session.done()) {
        ASSERT_LT(session.now(), Tick{5'000'000}) << "no progress";
        const std::size_t depth = 1 + (session.now() / 997) % 4;
        while (inbox && submitted < config.totalRequests
               && session.backlog() < depth) {
            const FrontendRequest request{
                rng.range(config.protocol.numBlocks), rng.chance(0.3),
                submitted, false};
            session.submit(request);
            ref.submit(request);
            ++submitted;
        }
        session.step(step);
        ref.run(step);
        ASSERT_EQ(session.now(), ref.now());
        ASSERT_EQ(session.served(), ref.stats().served)
            << "served diverged by tick " << ref.now();
        ASSERT_EQ(session.backlog(), ref.backlog());
        if (session.now() >= next_snapshot) {
            ASSERT_NO_FATAL_FAILURE(expectSameState(session, ref));
            next_snapshot = session.now() + 50;
        }
    }
    session.drain();
    ref.drain();
    ASSERT_NO_FATAL_FAILURE(expectSameState(session, ref));
    EXPECT_EQ(session.served(), config.totalRequests);
}

class SessionHorizon : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(SessionHorizon, SaturatedMatchesPerCycleLoop)
{
    for (const std::uint64_t step : {1, 7, 1000})
        for (const unsigned threads : {1u, 2u})
            runCase(GetParam(), Traffic::Saturated, step, threads);
}

TEST_P(SessionHorizon, ConstantRateMatchesPerCycleLoop)
{
    for (const std::uint64_t step : {1, 7, 1000})
        for (const unsigned threads : {1u, 2u})
            runCase(GetParam(), Traffic::ConstantRate, step, threads);
}

TEST_P(SessionHorizon, InboxMatchesPerCycleLoop)
{
    for (const std::uint64_t step : {1, 7, 1000})
        for (const unsigned threads : {1u, 2u})
            runCase(GetParam(), Traffic::Inbox, step, threads);
}

/** finish() jumps straight to each horizon; it must land where the
 * per-cycle loop does. */
TEST_P(SessionHorizon, FinishMatchesPerCycleLoop)
{
    const ProtocolKind kind = GetParam();
    const SystemConfig config = configFor(kind, Traffic::Saturated, 1);
    SimSession session(kind, config,
                       makeFrontend(Workload::Random, config));
    RefLoop ref(kind, config, makeFrontend(Workload::Random, config));
    const RunMetrics metrics = session.finish();
    while (ref.stats().served < config.totalRequests)
        ref.cycle();
    ref.drain();
    ASSERT_NO_FATAL_FAILURE(expectSameState(session, ref));
    EXPECT_EQ(metrics.served, ref.stats().served);
}

INSTANTIATE_TEST_SUITE_P(
    EveryProtocol, SessionHorizon,
    ::testing::ValuesIn(allProtocolKinds()),
    [](const ::testing::TestParamInfo<ProtocolKind> &info) {
        std::string name = protocolShortName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace palermo
