/**
 * @file
 * SimSession: the re-entrant experiment loop.
 *
 * Replaces the old monolithic Simulator::run() with a session object
 * whose cycle loop is driven from outside: traffic enters through
 * submit() (or a bound Frontend), time advances through step(n), the
 * post-run settling happens in drain(), and metrics are observable at
 * any point through snapshot(). Warmup accounting and the Fig. 12
 * stash-window sampling stay inside the session, so every driver —
 * the built-in runExperiment wrapper, the palermo_replay trace
 * replayer, the ObliviousKvService pump — measures identically.
 *
 * The decomposition is cycle-exact with the old run() loop: every
 * simulated cycle has the effect of one iteration of the legacy loop
 * (deliver completions, admit traffic, tick controller and DRAM,
 * account), so a frontend-bound session stepped to completion produces
 * byte-identical palermo-metrics-v1 JSON to the pre-session code.
 *
 * Event horizon. Not every cycle runs that body. After each real
 * cycle the session computes horizon_, the first cycle that must run
 * for real. It is the next cycle while a stash sample or the warmup
 * flip is pending, while the controller can act
 * (Controller::nextEventAt), or while an admission is possible (a
 * non-empty inbox, or the frontend's next issue, while canAccept()
 * holds). Otherwise it is the earliest of the frontend's next issue
 * and DramSystem::visibleHorizon, the first tick the DRAM can show the
 * parked controller something new; an idle controller reads no bus,
 * so with no read activity left nothing bounds it. Cycles before the
 * horizon are deferred: step() only counts them, at O(1) each, and
 * now() includes the count. settle() accounts a deferred span in one
 * batch (Controller::tickSpan with the busy cycles read off the
 * scheduled beats, one DramSystem::tickWindow, the exact occupancy
 * integral) before the next real cycle and before anything reads the
 * state it changes: drain(), finish(), snapshot(), controller() and
 * dram().
 * tests/test_session_horizon.cc checks all of it against a per-cycle
 * reference loop.
 *
 * A session steps on the thread that drives it. Host parallelism is
 * one session per SweepRunner worker (--jobs), never inside one.
 */

#ifndef PALERMO_SIM_SESSION_HH
#define PALERMO_SIM_SESSION_HH

#include <array>
#include <deque>
#include <memory>
#include <memory_resource>
#include <vector>

#include "common/stats.hh"
#include "controller/controller.hh"
#include "mem/dram_system.hh"
#include "sim/frontend.hh"
#include "sim/system_config.hh"

namespace palermo {

/** Everything a figure needs from one run. */
struct RunMetrics
{
    // Throughput.
    std::uint64_t measuredRequests = 0;
    std::uint64_t measuredCycles = 0;
    double requestsPerKilocycle = 0.0;
    double missesPerSecond = 0.0;

    // DRAM behavior.
    double bwUtilization = 0.0;
    double avgOutstanding = 0.0;
    double rowHitRate = 0.0;
    double rowConflictRate = 0.0;
    double avgReadLatency = 0.0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    double readsPerRequest = 0.0;
    double writesPerRequest = 0.0;

    // Controller behavior.
    double syncFraction = 0.0;
    std::array<double, kHierLevels> levelDramShare{};
    std::array<double, kHierLevels> levelSyncShare{};
    Histogram latency{100.0, 200};
    std::vector<LatencySample> samples;

    // Stash behavior (data level).
    std::vector<std::size_t> stashSamples; ///< Watermark per 1% window.
    std::size_t stashMax = 0;
    std::size_t stashCapacity = 0;
    bool stashOverflowed = false;

    // Request accounting.
    std::uint64_t served = 0;
    std::uint64_t dummies = 0;
    std::uint64_t llcHits = 0;
    double dummyRatio = 0.0;
};

/**
 * One experiment instance, driven cycle by cycle.
 *
 * config.totalRequests defines the run shape: the warmup boundary
 * (warmupFraction of it) and the stash sampling window (1% of it)
 * derive from it, and done() reports when that many requests have been
 * served — external drivers should size it to the traffic they intend
 * to inject.
 */
class SimSession
{
  public:
    /**
     * Externally driven session: the caller injects traffic with
     * submit() and advances time with step().
     * @param kind Protocol to instantiate (via the protocol table).
     * @param config System parameters.
     */
    SimSession(ProtocolKind kind, const SystemConfig &config);

    /**
     * Session with a bound traffic source: each step() admits from the
     * frontend at the controller's pace, like the legacy run loop.
     */
    SimSession(ProtocolKind kind, const SystemConfig &config,
               std::unique_ptr<Frontend> frontend);

    /** Custom controller injection (tests, exotic design points). */
    SimSession(const SystemConfig &config,
               std::unique_ptr<Controller> controller,
               std::unique_ptr<Frontend> frontend = nullptr);

    /**
     * Queue one request for admission (externally driven sessions
     * only; sessions with a bound frontend own their traffic).
     * Admission happens inside step(), at the controller's pace; when
     * the controller can accept, the next cycle runs for real.
     */
    void submit(const FrontendRequest &request);
    void submit(BlockId pa, bool write = false, std::uint64_t value = 0,
                bool dummy = false);

    /** Submitted requests not yet admitted to the controller. */
    std::size_t backlog() const { return inbox_.size(); }

    /**
     * Advance the clock: each cycle delivers DRAM completions, admits
     * pending traffic, ticks the controller and the DRAM model, and
     * updates warmup/sampling state. Cycles before the event horizon
     * are only counted here and settled later in one batch.
     */
    void step(std::uint64_t cycles = 1);

    /** Have config.totalRequests requests been served? */
    bool done() const { return served() >= config_.totalRequests; }

    /**
     * Settle the tail: run extra cycles (no admission) until the
     * controller goes idle, so trailing writes and evictions land in
     * the DRAM statistics. Bounded; idempotent.
     */
    void drain();

    /** Condense metrics from the state so far. Mid-run safe. */
    RunMetrics snapshot() const;

    /**
     * Run to completion: step until done(), drain(), snapshot().
     * Requires a bound frontend or fully submitted traffic — a
     * starved session would spin to the runaway guard otherwise.
     */
    RunMetrics finish();

    /** Simulated time, deferred cycles included. */
    Tick now() const { return dram_->now() + deferred_; }
    std::uint64_t served() const { return controller_->stats().served; }

    /** The controller, with every deferred cycle settled. */
    Controller &controller()
    {
        settle();
        return *controller_;
    }
    const Controller &controller() const
    {
        settle();
        return *controller_;
    }
    /** The DRAM model, with every deferred cycle settled. */
    const DramSystem &dram() const
    {
        settle();
        return *dram_;
    }
    const SystemConfig &config() const { return config_; }

  private:
    void runCycle();
    void admit(Tick now);

    /** The first cycle after a real one that must run for real (see
     * the file comment), capped at the runaway guard. */
    Tick nextHorizon() const;

    /**
     * Account the deferred span in one batch, exactly as its cycles
     * would have run: controller counters, one DramSystem::tickWindow,
     * the occupancy integral. Const so snapshot() can call it; what it
     * changes outside the controller and the DRAM is mutable.
     */
    void settle() const;

    SystemConfig config_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<Controller> controller_;
    std::unique_ptr<Frontend> frontend_; ///< Null when externally fed.
    /** Backs inbox_; declared before it. */
    std::pmr::unsynchronized_pool_resource inboxPool_;
    /** submit()ted, not admitted. */
    std::pmr::deque<FrontendRequest> inbox_;

    Tick horizon_ = 0; ///< First cycle that must run for real.
    /** Cycles counted by step() but not yet run: they follow
     * dram_->now() and end before horizon_. */
    mutable std::uint64_t deferred_ = 0;

    // Warmup and sampling state (formerly locals of Simulator::run).
    std::uint64_t warmupServed_;  ///< Requests before measurement.
    std::uint64_t window_;        ///< Stash sampling window (1%).
    bool measuring_;
    std::uint64_t warmupCycles_ = 0;
    std::uint64_t nextSample_;
    mutable TimeWeighted outstanding_;
    std::vector<std::size_t> stashSamples_;
};

} // namespace palermo

#endif // PALERMO_SIM_SESSION_HH
