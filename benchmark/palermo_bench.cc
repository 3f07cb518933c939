/**
 * @file
 * palermo_bench: one rep of one end-to-end service workload.
 *
 * The benchmark is its own load generator. From --seed it draws
 * arrivals with the public scenario/arrival samplers and drives
 * ObliviousKvService::offer/step/drainAll the way runOpenLoop and
 * runClosedLoop in service/loadgen.cc do, reading every response's
 * exact latency through the completion sink. One process runs one
 * rep, so the VmHWM it reports is that rep's peak memory alone.
 *
 * --trace swaps the service for TracedStack: the same stack assembled
 * from its public parts (TenantDirectory, BoundedRequestQueue,
 * buildProtocolController, DramSystem) and stepped by a copy of the
 * ObliviousKvService::step and SimSession loops, with a timer around
 * each call into a layer. run.py checks that the copy reproduces the
 * untraced rep of the same seed exactly, so the host-time split it
 * reports describes the same simulated work. The traced run also
 * records the attacker-visible leaf trace and runs the Fig. 9 gates
 * on all of it.
 *
 * Output is one JSON object on stdout. Checks that need only this
 * process land in its "problems" list; run.py aggregates reps and
 * runs the cross-process checks.
 */

#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "controller/controller.hh"
#include "mem/dram_system.hh"
#include "scenario/arrival.hh"
#include "scenario/engine.hh"
#include "security/mutual_info.hh"
#include "security/uniformity.hh"
#include "service/kv_service.hh"
#include "sim/metrics_json.hh"
#include "sim/protocol_registry.hh"
#include "sim/run_cli.hh"

using namespace palermo;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One benchmark workload: a traffic shape over one protocol. */
struct WorkloadSpec
{
    const char *name;
    ProtocolKind protocol;
    unsigned log2Blocks;
    unsigned tenants;
    unsigned clients;        ///< Closed-loop clients; 0 = open loop.
    double ratePerKilocycle; ///< Open-loop Poisson rate, all tenants.
    KeyDist dist;
    double writeFraction;
};

// README.md records why each workload is in the set.
const WorkloadSpec kWorkloads[] = {
    {"closed-sat", ProtocolKind::Palermo, 20, 1, 16, 0.0, KeyDist::Zipf,
     0.10},
    {"open-tail", ProtocolKind::Palermo, 20, 4, 0, 1.75, KeyDist::Zipf,
     0.25},
    {"ring-sat", ProtocolKind::RingOram, 20, 1, 16, 0.0, KeyDist::Zipf,
     0.10},
    {"sparse-large", ProtocolKind::Palermo, 22, 1, 0, 0.25,
     KeyDist::Uniform, 0.10},
};

constexpr double kZipfAlpha = 0.99;

/**
 * Measured completions per host-time window. A shared host slows the
 * process by up to ~40% for seconds at a time; run.py reports the
 * 90th-percentile window rate, which such phases cannot move unless
 * they cover nine windows in ten.
 */
constexpr std::uint64_t kWindowCompletions = 250;

struct Options
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 1;
    std::uint64_t warmup = 2000;
    std::uint64_t measured = 10000;
    unsigned log2Blocks = 0; ///< 0 = the workload's own size.
    bool trace = false;
};

bool
parseOptions(int argc, char **argv, Options *options, std::string *error)
{
    ArgCursor cursor(argc - 1, argv + 1);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        std::string value;
        std::uint64_t number = 0;
        if (name == "--trace") {
            options->trace = true;
            continue;
        }
        if (!cursor.value(&value)) {
            *error = name + " needs a value";
            return false;
        }
        if (name == "--workload") {
            for (const WorkloadSpec &spec : kWorkloads)
                if (value == spec.name)
                    options->workload = &spec;
            if (options->workload == nullptr) {
                *error = "unknown workload '" + value + "'";
                return false;
            }
            continue;
        }
        if (!parseUnsigned(value, &number)) {
            *error = name + " needs an unsigned integer";
            return false;
        }
        if (name == "--seed") {
            options->seed = number;
        } else if (name == "--warmup") {
            options->warmup = number;
        } else if (name == "--measured" && number > 0) {
            options->measured = number;
        } else if (name == "--log2-blocks" && number >= 10
                   && number <= 22) {
            options->log2Blocks = static_cast<unsigned>(number);
        } else {
            *error = "bad flag or value: " + name + " " + value;
            return false;
        }
    }
    if (options->workload == nullptr) {
        *error = "--workload is required";
        return false;
    }
    return true;
}

/**
 * Every field the benchmark relies on is set here, so neither the
 * PALERMO_* environment overrides nor a changed bench default can
 * move a number.
 */
ServiceConfig
serviceConfigFor(const Options &options)
{
    const WorkloadSpec &spec = *options.workload;
    const std::uint64_t planned = options.warmup + options.measured;
    ServiceConfig config;
    config.protocol = spec.protocol;
    config.system.protocol.numBlocks = 1ull
        << (options.log2Blocks ? options.log2Blocks : spec.log2Blocks);
    config.system.protocol.treetopBytes = {48 * 1024, 20 * 1024,
                                           8 * 1024};
    config.system.protocol.seed = options.seed;
    config.system.seed = options.seed;
    config.system.simThreads = 1;
    config.system.constantRate = false;
    config.system.totalRequests = planned;
    config.system.warmupFraction = static_cast<double>(options.warmup)
        / static_cast<double>(planned);
    config.tenants = spec.tenants;
    config.queueCapacity = 64;
    config.queuePolicy = QueuePolicy::Reject;
    config.sessionDepth = 8;
    config.warmupCompletions = options.warmup;
    return config;
}

/** What the load generator saw of one run. */
struct DriveResult
{
    std::vector<std::uint64_t> latencies; ///< Measured window, cycles.
    /** Host seconds of each kWindowCompletions measured completions. */
    std::vector<double> windowSeconds;
    std::uint64_t completions = 0; ///< Sink calls, warmup too.
    std::uint64_t offered = 0;
    std::uint64_t rejected = 0;
    std::uint64_t lateOffers = 0; ///< Offers not made at their due tick.
    double offerSeconds = 0.0;    ///< Host time inside offer().
    double runSeconds = 0.0;      ///< First offer through drainAll.
    double measuredSeconds = 0.0; ///< Warmup boundary through drainAll.

    std::uint64_t
    latencySum() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t latency : latencies)
            sum += latency;
        return sum;
    }
};

/**
 * Generate the workload's traffic into @p target (ObliviousKvService
 * or TracedStack) and drain it. Both targets see the same arrivals for
 * the same seed: the generator consumes randomness only per offer,
 * never per cycle.
 */
template <typename Target>
DriveResult
drive(Target &target, const Options &options)
{
    const WorkloadSpec &spec = *options.workload;
    DriveResult result;
    result.latencies.reserve(options.measured);

    Rng rng(mix64(options.seed ^ 0x62656e6368ull));
    TenantKeySampler keys(spec.dist, kZipfAlpha, spec.tenants,
                          target.tenants().sliceSize(),
                          mix64(options.seed ^ 0x6b657973ull));

    const Clock::time_point start = Clock::now();
    Clock::time_point boundary = start;
    Clock::time_point window_start = start;
    Tick landed = 0; ///< Tick of the latest response.
    target.setCompletionSink([&](const ServiceCompletion &completion) {
        ++result.completions;
        landed = completion.completion;
        if (result.completions == options.warmup) {
            boundary = window_start = Clock::now();
        } else if (result.completions > options.warmup) {
            result.latencies.push_back(completion.completion
                                       - completion.arrival);
            if (result.latencies.size() % kWindowCompletions == 0) {
                const Clock::time_point now = Clock::now();
                result.windowSeconds.push_back(
                    secondsBetween(window_start, now));
                window_start = now;
            }
        }
    });

    const auto offer = [&](Tick due) {
        const auto tenant =
            static_cast<unsigned>(rng.range(spec.tenants));
        const std::uint64_t key = keys.draw(tenant);
        const bool write = rng.chance(spec.writeFraction);
        if (target.now() != due)
            ++result.lateOffers;
        const Clock::time_point before = Clock::now();
        const Admission admission =
            target.offer(tenant, key, write, result.offered, due);
        result.offerSeconds += secondsBetween(before, Clock::now());
        ++result.offered;
        if (admission != Admission::Accepted)
            ++result.rejected;
    };

    const std::uint64_t planned = options.warmup + options.measured;
    if (spec.clients == 0) {
        // Open loop: Poisson arrivals, each offered at its due tick.
        const double mean_gap = 1000.0 / spec.ratePerKilocycle;
        double next_exact =
            arrivalGap(ArrivalProcess::Poisson, mean_gap, rng);
        while (result.offered < planned) {
            const auto due = static_cast<Tick>(next_exact);
            const Tick now = target.now();
            if (now < due) {
                target.step(due - now);
                continue;
            }
            offer(due);
            next_exact += arrivalGap(ArrivalProcess::Poisson, mean_gap,
                                     rng);
        }
    } else {
        // Closed loop, think time zero: each response re-issues its
        // client's next request in the cycle it lands.
        while (result.offered < std::min<std::uint64_t>(spec.clients,
                                                        planned))
            offer(0);
        while (target.completedTotal() < planned) {
            const std::uint64_t done = target.step(1);
            for (std::uint64_t i = 0; i < done && result.offered < planned;
                 ++i)
                offer(landed);
        }
    }
    target.drainAll();

    const Clock::time_point end = Clock::now();
    result.runSeconds = secondsBetween(start, end);
    result.measuredSeconds = secondsBetween(boundary, end);
    return result;
}

/** VmHWM of this process in MiB: its peak RSS, set-up included. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** Mean cost of one Clock::now() call, in seconds (best of 5). */
double
clockReadCost()
{
    constexpr int kReads = 1 << 16;
    double best = 1.0;
    for (int batch = 0; batch < 5; ++batch) {
        const Clock::time_point first = Clock::now();
        Clock::time_point last = first;
        for (int i = 0; i < kReads; ++i)
            last = Clock::now();
        best = std::min(best, secondsBetween(first, last) / kReads);
    }
    return best;
}

/** Host seconds per layer in a traced run, per-cycle parts sampled. */
struct LayerTimes
{
    double admission = 0.0;  ///< blockOf + BoundedRequestQueue::offer.
    double completion = 0.0; ///< drainCompletions + onCompletion.
    double push = 0.0;       ///< Controller::canAccept + push.
    double tick = 0.0;       ///< Controller::tick (plans, enqueues).
    double dram = 0.0;       ///< DramSystem::tick.
    double idle = 0.0;       ///< tickIdle + tickWindow, every window.
    /** Per-cycle work between layer calls: the service pump and reap,
     * the session's idle-window gate and bookkeeping, the generator. */
    double loop = 0.0;
    std::uint64_t stepped = 0; ///< Cycles run one at a time.
    std::uint64_t sampled = 0; ///< Of those, cycles that were timed.
    std::uint64_t skipped = 0; ///< Cycles crossed in idle windows.
};

/**
 * The service stack assembled from public parts and stepped by a copy
 * of ObliviousKvService::step/drainAll and SimSession::step/drain,
 * timing each call into a layer. It keeps only the state those loops
 * use to decide what runs; the service's histograms are left out.
 */
class TracedStack
{
  public:
    TracedStack(const ServiceConfig &config, double read_cost)
        : config_(normalizedConfig(config)),
          tenants_(config_.tenants, config_.system.protocol.numBlocks,
                   config_.system.seed),
          controller_(timedBuild(config_, &buildSeconds_)),
          dram_(config_.system.dram),
          queue_(config_.queueCapacity, config_.queuePolicy),
          readCost_(read_cost),
          warmupServed_(static_cast<std::uint64_t>(
              config_.system.totalRequests
              * config_.system.warmupFraction)),
          window_(std::max<std::uint64_t>(
              1, config_.system.totalRequests / 100)),
          measuring_(warmupServed_ == 0), nextSample_(window_)
    {
        controller_->stats().recordLeafTrace = true;
    }

    Tick now() const { return dram_.now(); }
    const TenantDirectory &tenants() const { return tenants_; }
    std::uint64_t completedTotal() const { return completedTotal_; }
    double buildSeconds() const { return buildSeconds_; }

    /** Layer times, the sampled per-cycle parts scaled to all cycles. */
    LayerTimes
    times() const
    {
        LayerTimes scaled = sampled_;
        const double scale = static_cast<double>(scaled.stepped)
            / static_cast<double>(scaled.sampled ? scaled.sampled : 1);
        scaled.completion *= scale;
        scaled.push *= scale;
        scaled.tick *= scale;
        scaled.dram *= scale;
        scaled.loop *= scale;
        return scaled;
    }

    const Controller &controller() const { return *controller_; }
    const DramSystem &dram() const { return dram_; }

    void
    setCompletionSink(std::function<void(const ServiceCompletion &)> sink)
    {
        sink_ = std::move(sink);
    }

    Admission
    offer(unsigned tenant, std::uint64_t key, bool write,
          std::uint64_t value, Tick arrival)
    {
        const Clock::time_point before = stamp();
        ServiceRequest request;
        request.tenant = tenant;
        request.block = tenants_.blockOf(tenant, key);
        request.write = write;
        request.value = value;
        request.arrival = arrival;
        const Admission admission = queue_.offer(request);
        sampled_.admission +=
            secondsBetween(before, Clock::now()) - readCost_;
        return admission;
    }

    std::uint64_t
    step(std::uint64_t cycles)
    {
        std::uint64_t completions = 0;
        while (cycles > 0) {
            pump();
            if (quiescent()) {
                sessionStep(cycles);
                break;
            }
            sessionStep(1);
            --cycles;
            completions += reap();
        }
        return completions;
    }

    void
    drainAll()
    {
        while (!quiescent())
            step(1);
        for (unsigned i = 0; i < 4 * config_.system.dram.timing.tRC
                             && !controller_->idle();
             ++i)
            cycle(false);
    }

  private:
    struct InFlight
    {
        std::uint32_t tenant;
        Tick arrival;
    };

    static ServiceConfig
    normalizedConfig(ServiceConfig config)
    {
        config.system =
            normalizedProtocolConfig(config.protocol, config.system);
        return config;
    }

    static std::unique_ptr<Controller>
    timedBuild(const ServiceConfig &config, double *seconds)
    {
        const Clock::time_point before = Clock::now();
        std::unique_ptr<Controller> controller =
            buildProtocolController(config.protocol, config.system);
        *seconds = secondsBetween(before, Clock::now());
        return controller;
    }

    bool
    quiescent() const
    {
        return queue_.empty() && inflight_.empty();
    }

    void
    pump()
    {
        while (!queue_.empty() && inbox_.size() < config_.sessionDepth) {
            const ServiceRequest request = queue_.pop();
            inbox_.push_back(FrontendRequest{request.block, request.write,
                                             request.value, false});
            inflight_.push_back(InFlight{request.tenant, request.arrival});
        }
    }

    std::uint64_t
    reap()
    {
        const std::uint64_t served = controller_->stats().served;
        const std::uint64_t completions = served - lastServed_;
        lastServed_ = served;
        for (std::uint64_t i = 0; i < completions; ++i) {
            palermo_assert(!inflight_.empty(),
                           "completion without an in-flight request");
            const InFlight entry = inflight_.front();
            inflight_.pop_front();
            ++completedTotal_;
            if (sink_)
                sink_(ServiceCompletion{entry.tenant, entry.arrival,
                                        dram_.now()});
        }
        return completions;
    }

    void
    sessionStep(std::uint64_t cycles)
    {
        while (cycles > 0) {
            if (const std::uint64_t advanced = bulkStep(cycles)) {
                cycles -= advanced;
                continue;
            }
            runCycle();
            --cycles;
        }
    }

    /** SimSession::quiescentWindow + bulkStep for an inbox-fed session. */
    std::uint64_t
    bulkStep(std::uint64_t bound)
    {
        if (!controller_->idle() || !dram_.readQuiescent())
            return 0;
        const ControllerStats &cs = controller_->stats();
        if (cs.served >= nextSample_
            || (!measuring_ && cs.served >= warmupServed_)
            || !inbox_.empty())
            return 0;
        const Clock::time_point before = stamp();
        if (!controller_->tickIdle(bound))
            return 0;
        dram_.tickWindow(nullptr, bound);
        sampled_.idle += secondsBetween(before, Clock::now()) - readCost_;
        sampled_.skipped += bound;
        return bound;
    }

    /**
     * Read the clock, ending the loop span a timed cycle left open.
     * Every timer starts here, so the span covers exactly the work
     * between the end of a timed cycle and the next layer call.
     */
    Clock::time_point
    stamp()
    {
        const Clock::time_point now = Clock::now();
        if (loopOpen_) {
            sampled_.loop += secondsBetween(loopStart_, now) - readCost_;
            loopOpen_ = false;
        }
        return now;
    }

    /** The per-cycle body SimSession::runCycle and drain() share. */
    void
    cycle(bool admit)
    {
        sampler_ = sampler_ * 6364136223846793005ull
            + 1442695040888963407ull;
        const bool timed = (sampler_ >> 61) == 0; // 1 cycle in 8.
        ++sampled_.stepped;

        Clock::time_point last;
        if (timed || loopOpen_)
            last = stamp();
        const auto lap = [&](double *total) {
            if (!timed)
                return;
            const Clock::time_point now = Clock::now();
            *total += secondsBetween(last, now) - readCost_;
            last = now;
        };
        for (const Completion &completion : dram_.drainCompletions())
            controller_->onCompletion(completion.tag);
        lap(&sampled_.completion);
        while (admit && !inbox_.empty() && controller_->canAccept()) {
            const FrontendRequest request = inbox_.front();
            inbox_.pop_front();
            controller_->push(request.pa, request.write, request.value,
                              request.dummy);
        }
        lap(&sampled_.push);
        controller_->tick(dram_);
        lap(&sampled_.tick);
        dram_.tick();
        lap(&sampled_.dram);
        if (timed) {
            ++sampled_.sampled;
            loopStart_ = last;
            loopOpen_ = true;
        }
    }

    void
    runCycle()
    {
        cycle(true);
        ControllerStats &cs = controller_->stats();
        if (!measuring_ && cs.served >= warmupServed_) {
            measuring_ = true;
            dram_.resetStats();
            cs.dramCycles = {};
            cs.syncCycles = {};
            cs.latency.reset();
            cs.samples.clear();
        }
        if (cs.served >= nextSample_) {
            nextSample_ += window_;
            controller_->stashOf(kLevelData).resetWindowWatermark();
        }
    }

    ServiceConfig config_;
    TenantDirectory tenants_;
    double buildSeconds_ = 0.0;
    std::unique_ptr<Controller> controller_;
    DramSystem dram_;
    BoundedRequestQueue queue_;
    std::deque<FrontendRequest> inbox_;
    std::deque<InFlight> inflight_;
    std::function<void(const ServiceCompletion &)> sink_;
    std::uint64_t completedTotal_ = 0;
    std::uint64_t lastServed_ = 0;

    double readCost_;
    std::uint64_t sampler_ = 0x5eed; ///< LCG that picks timed cycles.
    LayerTimes sampled_; ///< Per-cycle parts hold sampled cycles only.
    Clock::time_point loopStart_;
    bool loopOpen_ = false;

    // SimSession's warmup and stash-sampling state.
    std::uint64_t warmupServed_;
    std::uint64_t window_;
    bool measuring_;
    std::uint64_t nextSample_;
};

/** Fields both modes report, so run.py can match a trace to its rep. */
void
writeIdentity(JsonWriter &w, const DriveResult &result, Tick end_tick,
              std::uint64_t served, std::uint64_t dram_reads,
              std::uint64_t dram_writes)
{
    w.field("end_tick", end_tick);
    w.field("served", served);
    w.field("dram_reads", dram_reads);
    w.field("dram_writes", dram_writes);
    w.field("latency_sum", result.latencySum());
    w.field("completions", result.completions);
    w.field("offered", result.offered);
    w.field("rejected", result.rejected);
    w.field("late_offers", result.lateOffers);
    w.field("run_s", result.runSeconds);
}

/** Checks both modes run on their own process's results. */
std::vector<std::string>
driveProblems(const DriveResult &result, bool stash_overflowed)
{
    std::vector<std::string> problems;
    if (result.lateOffers != 0)
        problems.push_back(std::to_string(result.lateOffers)
                           + " offers not made at their due tick");
    if (stash_overflowed)
        problems.push_back("stash overflowed");
    if (result.latencies.empty())
        problems.push_back("no measured completions");
    return problems;
}

void
writeProblems(JsonWriter &w, const std::vector<std::string> &problems)
{
    w.key("problems").beginArray();
    for (const std::string &problem : problems)
        w.value(problem);
    w.endArray();
}

void
runTimed(const Options &options, JsonWriter &w)
{
    const Clock::time_point before = Clock::now();
    ObliviousKvService service(serviceConfigFor(options));
    const double setup_seconds = secondsBetween(before, Clock::now());

    const DriveResult result = drive(service, options);
    const ServiceSnapshot snapshot = service.snapshot();
    const RunMetrics metrics = service.simMetrics();

    std::vector<std::string> problems =
        driveProblems(result, metrics.stashOverflowed);
    const ServiceScopeSnapshot &global = snapshot.global;
    if (global.accepted != global.completed)
        problems.push_back(std::to_string(global.accepted)
                           + " accepted but "
                           + std::to_string(global.completed)
                           + " completed");
    if (result.latencies.size() != global.completed)
        problems.push_back("sink saw "
                           + std::to_string(result.latencies.size())
                           + " measured completions, service counted "
                           + std::to_string(global.completed));

    w.field("mode", "timed");
    w.field("setup_s", setup_seconds);
    w.field("measured_s", result.measuredSeconds);
    w.field("offer_s", result.offerSeconds);
    w.field("peak_rss_mb", peakRssMb());
    writeIdentity(w, result, service.now(), metrics.served,
                  metrics.dramReads, metrics.dramWrites);
    w.field("measured_cycles", snapshot.measuredCycles);
    w.field("accepted", global.accepted);
    w.field("measured_completed", global.completed);
    w.field("avg_outstanding", metrics.avgOutstanding);
    w.field("sync_frac", metrics.syncFraction);
    w.key("level_dram_share").beginArray();
    for (const double share : metrics.levelDramShare)
        w.value(share);
    w.endArray();
    w.field("ctrl_lat_mean_cycles", metrics.latency.mean());
    w.field("stash_max", static_cast<std::uint64_t>(metrics.stashMax));
    w.field("reads_per_req", metrics.readsPerRequest);
    w.field("writes_per_req", metrics.writesPerRequest);
    w.field("bw_util", metrics.bwUtilization);
    w.field("row_hit_rate", metrics.rowHitRate);
    w.field("row_conflict_rate", metrics.rowConflictRate);
    w.field("read_latency_cycles", metrics.avgReadLatency);
    w.field("window_completions", kWindowCompletions);
    w.key("window_s").beginArray();
    for (const double seconds : result.windowSeconds)
        w.value(seconds);
    w.endArray();
    w.key("latencies").beginArray();
    for (const std::uint64_t latency : result.latencies)
        w.value(latency);
    w.endArray();
    writeProblems(w, problems);
}

/** Histogram bins for the chi-square gate, as the scenario engine
 * picks them: 64, halved while fewer than 8 observations per bin. */
std::size_t
uniformityBins(std::size_t observations, std::uint64_t leaf_space)
{
    std::size_t bins = 64;
    while (bins > 8 && observations < bins * 8)
        bins /= 2;
    if (leaf_space < bins)
        bins = static_cast<std::size_t>(leaf_space);
    return bins;
}

void
runTraced(const Options &options, JsonWriter &w)
{
    const double read_cost = clockReadCost();
    const Clock::time_point before = Clock::now();
    TracedStack stack(serviceConfigFor(options), read_cost);
    const double setup_seconds = secondsBetween(before, Clock::now());

    const DriveResult result = drive(stack, options);
    const LayerTimes times = stack.times();
    const ControllerStats &cs = stack.controller().stats();
    const DramSnapshot dram = stack.dram().snapshot();

    const Clock::time_point gate_start = Clock::now();
    ScenarioSecurity security;
    security.evaluated = true;
    security.leafObservations = cs.leafTrace.size();
    security.chiSquare = leafUniformity(
        cs.leafTrace, cs.leafSpace,
        uniformityBins(cs.leafTrace.size(), cs.leafSpace));
    security.serialCorrelation = serialCorrelation(cs.leafTrace);
    security.attacker = fitAttackerModel(cs.samples);
    // Reported always; the gate applies it only when miEvaluated.
    security.miEvaluated = security.attacker.stashSamples >= 50
        && security.attacker.treeSamples >= 50;
    security.mutualInformationBits =
        mutualInformation(security.attacker.p1, security.attacker.p2);
    const double gate_seconds = secondsBetween(gate_start, Clock::now());

    std::vector<std::string> problems = driveProblems(
        result, stack.controller().stashOf(kLevelData).overflowed());
    if (!security.pass())
        problems.push_back("Fig. 9 security gates failed on the leaf trace");

    w.field("mode", "traced");
    w.field("setup_s", setup_seconds);
    w.field("build_s", stack.buildSeconds());
    w.field("timer_ns", read_cost * 1e9);
    writeIdentity(w, result, stack.now(), cs.served, dram.reads,
                  dram.writes);
    w.key("layer_s").beginObject();
    w.field("admission", times.admission);
    w.field("completion", times.completion);
    w.field("push", times.push);
    w.field("tick", times.tick);
    w.field("dram", times.dram);
    w.field("idle", times.idle);
    w.field("loop", times.loop);
    w.endObject();
    w.field("stepped_cycles", times.stepped);
    w.field("sampled_cycles", times.sampled);
    w.field("skipped_cycles", times.skipped);
    w.field("gate_ms", gate_seconds * 1e3);
    w.field("leaf_observations", security.leafObservations);
    w.field("chi2_ratio", security.chiSquare.statistic
                              / security.chiSquare.threshold);
    w.field("serial_corr", security.serialCorrelation);
    w.field("mi_evaluated", security.miEvaluated);
    w.field("mi_bits", security.mutualInformationBits);
    writeProblems(w, problems);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options options;
    std::string error;
    if (!parseOptions(argc, argv, &options, &error)) {
        std::fprintf(stderr,
                     "palermo_bench: %s\n"
                     "usage: palermo_bench --workload NAME [--seed N] "
                     "[--warmup N] [--measured N] [--log2-blocks L] "
                     "[--trace]\n",
                     error.c_str());
        return 2;
    }

    JsonWriter w;
    w.beginObject();
    w.field("workload", options.workload->name);
    w.field("seed", options.seed);
    w.field("git_describe", gitDescribe());
    w.field("compiler", __VERSION__);
    w.field("build_type", PALERMO_BENCH_BUILD_TYPE);
    if (options.trace)
        runTraced(options, w);
    else
        runTimed(options, w);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
