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
 * replayer, a multi-tenant interleaver, a rate-controlled load
 * generator — measures identically.
 *
 * The decomposition is cycle-exact with the old run() loop: one
 * step() is one iteration of the legacy loop (deliver completions,
 * admit traffic, tick controller and DRAM, account), so a
 * frontend-bound session stepped to completion produces byte-identical
 * palermo-metrics-v1 JSON to the pre-session code.
 *
 * With config.simThreads > 1 the session owns a WorkerPool and shards
 * channel ticks across it inside each cycle (and batches barrier
 * epochs over provably quiescent windows). Channels are independent
 * within a cycle and the controller/frontend half stays on the
 * coordinating thread, so the parallel schedule is an implementation
 * detail: every stat, stash sample, and metrics byte is identical to
 * the serial run (tests/test_parallel_identity.cc).
 */

#ifndef PALERMO_SIM_SESSION_HH
#define PALERMO_SIM_SESSION_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "controller/controller.hh"
#include "mem/dram_system.hh"
#include "sim/frontend.hh"
#include "sim/parallel.hh"
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
     * Admission happens inside step(), at the controller's pace.
     */
    void submit(const FrontendRequest &request);
    void submit(BlockId pa, bool write = false, std::uint64_t value = 0,
                bool dummy = false);

    /** Submitted requests not yet admitted to the controller. */
    std::size_t backlog() const { return inbox_.size(); }

    /**
     * Advance the clock: each cycle delivers DRAM completions, admits
     * pending traffic, ticks the controller and the DRAM model, and
     * updates warmup/sampling state.
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

    Tick now() const { return dram_->now(); }
    std::uint64_t served() const { return controller_->stats().served; }

    Controller &controller() { return *controller_; }
    const Controller &controller() const { return *controller_; }
    const SystemConfig &config() const { return config_; }

  private:
    void runCycle();
    void admit(Tick now);
    void tickDram();

    /**
     * Largest batchable window of provably event-free cycles starting
     * now, capped at `bound`: the controller is idle (its tick is pure
     * accounting), no read or completion is pending in DRAM, no stash
     * sample or warmup flip is outstanding, and no traffic can be
     * admitted before the window ends. 0 means "take the per-cycle
     * path".
     */
    std::uint64_t quiescentWindow(std::uint64_t bound) const;

    /**
     * Try to advance a whole quiescent window (at most `bound` cycles)
     * in one batched epoch: bulk controller idle accounting + one
     * DramSystem::tickWindow + exact occupancy integration. State and
     * statistics evolve exactly as the equivalent runCycle() sequence.
     * @return Cycles advanced; 0 when the per-cycle path must run.
     */
    std::uint64_t bulkStep(std::uint64_t bound);

    SystemConfig config_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<Controller> controller_;
    std::unique_ptr<Frontend> frontend_; ///< Null when externally fed.
    std::unique_ptr<WorkerPool> pool_;   ///< Null when simThreads <= 1.
    std::deque<FrontendRequest> inbox_;  ///< submit()ted, not admitted.

    // Warmup and sampling state (formerly locals of Simulator::run).
    std::uint64_t warmupServed_;  ///< Requests before measurement.
    std::uint64_t window_;        ///< Stash sampling window (1%).
    bool measuring_;
    std::uint64_t warmupCycles_ = 0;
    std::uint64_t nextSample_;
    TimeWeighted outstanding_;
    std::vector<std::size_t> stashSamples_;
};

} // namespace palermo

#endif // PALERMO_SIM_SESSION_HH
