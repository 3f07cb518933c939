/**
 * @file
 * Scenario execution: arrival expansion, the merged drive loop,
 * isolation baselines, and the fairness/security condensation.
 */

#include "scenario/engine.hh"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/log.hh"
#include "sim/protocol_registry.hh"
#include "sim/trace_file.hh"

namespace palermo {

namespace {

/** One pre-expanded open-loop arrival, ready to merge. */
struct MergedArrival
{
    Tick due;
    std::uint32_t tenant;
    std::uint64_t key;
    bool write;
    std::uint64_t value = 0; ///< Payload: merged-schedule position.
};

/** A re-issue a closed-loop client owes once the queue has room. */
struct OwedIssue
{
    std::uint32_t tenant;
    Tick arrival;
};

/** Per-tenant RNG/seed derivation: a pure function of (spec, index),
 * identical between the shared run and that tenant's isolation run. */
std::uint64_t
tenantSeed(const ScenarioSpec &spec, std::size_t index)
{
    return mix64(spec.seed ^ (0x7363656e61ull + index));
}

/** Cyclic reader over a tenant's trace (the trace is its key stream). */
struct TraceCursor
{
    const std::vector<FrontendRequest> *trace = nullptr;
    std::size_t next = 0;

    FrontendRequest
    advance()
    {
        const FrontendRequest request = (*trace)[next];
        next = (next + 1) % trace->size();
        return request;
    }
};

/** Live state of one closed-loop source during the drive loop. */
struct ClosedSource
{
    std::uint32_t tenant;
    const TenantSpec *spec;
    Rng rng;
    TenantKeySampler keys;
    TraceCursor cursor; ///< Only bound for trace sources.
    std::uint64_t issued = 0;
};

/**
 * Expand one open-loop tenant's full arrival schedule: rate-curve
 * inversion on the active-time clock, burst gating back onto the wall
 * clock, scan-run key generation. Appends to *out in time order.
 */
void
expandOpenTenant(const ScenarioSpec &spec, std::size_t index,
                 std::uint64_t slice_size, const TraceCursor &trace,
                 std::vector<MergedArrival> *out)
{
    const TenantSpec &tenant = spec.tenants[index];
    const std::uint64_t seed = tenantSeed(spec, index);
    Rng rng(mix64(seed ^ 0x617272697665ull));
    TenantKeySampler keys(tenant.dist, tenant.zipfAlpha, 1, slice_size,
                          seed);
    const RateCurve curve = tenant.curve();
    const BurstPattern burst(tenant.burstOnCycles,
                             tenant.burstOffCycles);
    TraceCursor cursor = trace;

    double active = 0.0;
    std::uint64_t scan_left = 0;
    std::uint64_t scan_key = 0;
    for (;;) {
        // One unit of integrated rate per arrival: exponential for
        // Poisson, exactly 1 for fixed pacing (no randomness drawn).
        const double u = tenant.process == ArrivalProcess::Fixed
            ? 1.0
            : -std::log(1.0 - rng.uniform());
        const double next = curve.nextArrival(active, u);
        if (next < 0.0)
            break; // The curve went silent for good.
        active = next;
        const double wall = burst.wallTime(active);
        if (wall >= static_cast<double>(spec.duration))
            break;

        MergedArrival arrival;
        arrival.due = static_cast<Tick>(wall);
        arrival.tenant = static_cast<std::uint32_t>(index);
        if (tenant.source == SourceKind::Trace) {
            const FrontendRequest request = cursor.advance();
            arrival.key = request.pa % slice_size;
            arrival.write = request.write;
        } else {
            if (scan_left > 0) {
                scan_key = (scan_key + 1) % slice_size;
                arrival.key = scan_key;
                --scan_left;
            } else {
                arrival.key = keys.draw(0);
                if (tenant.scanFraction > 0.0
                    && rng.chance(tenant.scanFraction)) {
                    scan_key = arrival.key;
                    scan_left = tenant.scanLength - 1;
                }
            }
            arrival.write = rng.chance(tenant.writeFraction);
        }
        out->push_back(arrival);
    }
}

/** Next request of a closed-loop client (think time zero). */
MergedArrival
nextClosedRequest(ClosedSource &source)
{
    MergedArrival request;
    request.due = 0; // Caller stamps the arrival tick.
    request.tenant = source.tenant;
    if (source.spec->source == SourceKind::Trace) {
        const FrontendRequest entry = source.cursor.advance();
        request.key = entry.pa % source.keys.sliceSize();
        request.write = entry.write;
    } else {
        request.key = source.keys.draw(0);
        request.write = source.rng.chance(source.spec->writeFraction);
    }
    ++source.issued;
    return request;
}

ServiceConfig
serviceConfigFor(const ScenarioSpec &spec, std::uint64_t planned,
                 std::uint64_t warmup)
{
    ServiceConfig config;
    config.protocol = spec.protocol;
    config.system = SystemConfig::benchDefault();
    if (spec.blocks)
        config.system.protocol.numBlocks = spec.blocks;
    config.system.seed = spec.seed;
    config.system.protocol.seed = spec.seed;
    config.system.totalRequests = planned ? planned : 1;
    config.system.warmupFraction = planned
        ? static_cast<double>(warmup) / static_cast<double>(planned)
        : 0.0;
    config.tenants = static_cast<unsigned>(spec.tenants.size());
    config.queueCapacity = spec.queueCapacity;
    // The initial closed-loop burst must be admissible in full: a
    // smaller queue would shed clients at tick 0.
    std::uint64_t closed_total = 0;
    for (const TenantSpec &tenant : spec.tenants)
        if (tenant.closedLoop)
            closed_total += tenant.concurrency;
    config.queueCapacity = std::max<std::size_t>(
        config.queueCapacity, closed_total);
    config.queuePolicy = spec.queuePolicy;
    config.sessionDepth = spec.sessionDepth;
    config.warmupCompletions = warmup;
    return config;
}

/** Everything one service run leaves behind. */
struct RunProducts
{
    ServiceSnapshot service;
    RunMetrics metrics;
    SystemConfig system;
    std::vector<Leaf> leaves;
    std::uint64_t leafSpace = 0;
};

/**
 * Drive one service instance to completion. @p active selects a single
 * generating tenant (isolation baseline) or all of them (-1). The
 * service shape — tenant count, slice geometry, key mapping — is
 * identical either way; isolation only silences the other sources.
 */
bool
runOnce(const ScenarioSpec &spec, int active, std::uint64_t warmup,
        bool record_leaves, RunProducts *out, std::string *error)
{
    const auto is_active = [&](std::size_t index) {
        return active < 0 || static_cast<std::size_t>(active) == index;
    };

    // Load every active trace source once, up front.
    std::vector<std::vector<FrontendRequest>> traces(spec.tenants.size());
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        const TenantSpec &tenant = spec.tenants[i];
        if (tenant.source != SourceKind::Trace || !is_active(i))
            continue;
        if (!loadTraceFile(tenant.resolvedTracePath, &traces[i], error))
            return false;
    }

    // Expansion needs the slice size, which needs a directory with the
    // final geometry; build a throwaway directory from the normalized
    // config rather than the service (which does not exist yet).
    ServiceConfig probe = serviceConfigFor(spec, 1, 0);
    const SystemConfig normalized =
        normalizedProtocolConfig(probe.protocol, probe.system);
    const TenantDirectory geometry(
        probe.tenants, normalized.protocol.numBlocks, normalized.seed);
    const std::uint64_t slice_size = geometry.sliceSize();

    // Pre-expand and merge the open-loop schedule. stable_sort on the
    // due tick alone keeps equal-tick arrivals in tenant order — the
    // same deterministic interleaving every run.
    std::vector<MergedArrival> merged;
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        if (spec.tenants[i].closedLoop || !is_active(i))
            continue;
        TraceCursor cursor;
        cursor.trace = &traces[i];
        expandOpenTenant(spec, i, slice_size, cursor, &merged);
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const MergedArrival &a, const MergedArrival &b) {
                         return a.due < b.due;
                     });
    for (std::size_t i = 0; i < merged.size(); ++i)
        merged[i].value = i;

    // Closed-loop sources and a deterministic completion estimate for
    // the session's warmup/stash-window sizing.
    std::vector<ClosedSource> closed;
    std::uint64_t planned = merged.size();
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        const TenantSpec &tenant = spec.tenants[i];
        if (!tenant.closedLoop || !is_active(i))
            continue;
        const std::uint64_t seed = tenantSeed(spec, i);
        ClosedSource source{
            static_cast<std::uint32_t>(i),
            &tenant,
            Rng(mix64(seed ^ 0x617272697665ull)),
            TenantKeySampler(tenant.dist, tenant.zipfAlpha, 1,
                             slice_size, seed),
            TraceCursor{&traces[i], 0},
            0,
        };
        closed.push_back(std::move(source));
        planned += tenant.concurrency
            + tenant.concurrency * (spec.duration / 1000);
    }

    ObliviousKvService service(
        serviceConfigFor(spec, planned, warmup));
    if (record_leaves)
        service.enableLeafTrace();

    // The sink only records; re-issues happen outside step(), so the
    // service never re-enters itself.
    std::vector<ServiceCompletion> finished;
    service.setCompletionSink([&](const ServiceCompletion &completion) {
        finished.push_back(completion);
    });

    std::vector<ClosedSource *> closedByTenant(spec.tenants.size(),
                                               nullptr);
    for (ClosedSource &source : closed)
        closedByTenant[source.tenant] = &source;

    std::deque<OwedIssue> owed; ///< Closed re-issues awaiting room.
    const auto issueClosed = [&](ClosedSource &source, Tick arrival) {
        const MergedArrival request = nextClosedRequest(source);
        return service.offer(request.tenant, request.key, request.write,
                             source.issued, arrival);
    };
    const auto tryOwed = [&]() {
        while (!owed.empty()) {
            const OwedIssue head = owed.front();
            // Never burn a rejection on a closed-loop client: wait for
            // room instead — its latency clock is already running.
            if (service.config().queuePolicy == QueuePolicy::Reject
                && service.queue().full())
                break;
            if (issueClosed(*closedByTenant[head.tenant], head.arrival)
                == Admission::WouldBlock)
                break;
            owed.pop_front();
        }
    };
    const auto handleFinished = [&]() {
        for (const ServiceCompletion &completion : finished) {
            ClosedSource *source = closedByTenant[completion.tenant];
            if (source && completion.completion < spec.duration)
                owed.push_back(
                    OwedIssue{completion.tenant, completion.completion});
        }
        finished.clear();
        tryOwed();
    };

    // Tick-0 burst: every closed client in the system before time runs.
    for (ClosedSource &source : closed)
        for (unsigned i = 0; i < source.spec->concurrency; ++i) {
            const Admission admission = issueClosed(source, 0);
            palermo_assert(admission == Admission::Accepted,
                           "initial closed burst must be admissible");
        }

    std::size_t next = 0;
    std::deque<MergedArrival> blocked; ///< Open-loop WouldBlock retries.
    const bool paced = !closed.empty();
    for (;;) {
        handleFinished();
        if (!blocked.empty()) {
            const MergedArrival &head = blocked.front();
            if (service.offer(head.tenant, head.key, head.write,
                              head.value, head.due)
                != Admission::WouldBlock)
                blocked.pop_front();
            else
                service.step(1);
            continue;
        }
        if (next < merged.size()) {
            const Tick due = merged[next].due;
            const Tick now = service.now();
            if (now < due) {
                // Closed-loop clients need cycle-granular re-issue
                // (think time zero); a purely open mix can cross the
                // whole gap in one batched call.
                service.step(paced ? 1 : due - now);
                continue;
            }
            const MergedArrival &arrival = merged[next];
            if (service.offer(arrival.tenant, arrival.key,
                              arrival.write, arrival.value, arrival.due)
                == Admission::WouldBlock)
                blocked.push_back(arrival);
            ++next;
            continue;
        }
        if (paced && service.now() < spec.duration) {
            service.step(1);
            continue;
        }
        break;
    }
    // Generation is over: drop any re-issues still owed (their clients
    // completed after the duration horizon) and settle the tail.
    owed.clear();
    service.drainAll();
    finished.clear();

    out->service = service.snapshot();
    out->metrics = service.simMetrics();
    out->system = service.config().system;
    if (record_leaves) {
        out->leaves = service.leafTrace();
        out->leafSpace = service.leafSpace();
    }
    return true;
}

/** The smallest uniformity histogram: bins, and observations per bin. */
constexpr std::size_t kMinBins = 8;
constexpr std::size_t kMinPerBin = 8;

/** Histogram bins for the uniformity test, scaled to the evidence so
 * sparse CI-sized traces keep ~8+ expected observations per bin. */
std::size_t
uniformityBins(std::size_t observations, std::uint64_t leaf_space)
{
    std::size_t bins = 64;
    while (bins > kMinBins && observations < bins * kMinPerBin)
        bins /= 2;
    if (leaf_space < bins)
        bins = static_cast<std::size_t>(leaf_space);
    return bins;
}

std::string
scenarioPointId(const ScenarioSpec &spec)
{
    return std::string(protocolShortName(spec.protocol)) + "/scenario/"
        + spec.name;
}

RunRecord
condenseBase(const ScenarioSpec &spec, const RunProducts &products,
             std::size_t index, const std::string &id,
             const std::string &label)
{
    RunRecord record;
    record.point.index = index;
    record.point.kind = spec.protocol;
    record.point.workload = Workload::Redis; // Label overrides.
    record.point.workloadLabel = label;
    record.point.config = products.system;
    record.point.id = id;
    record.metrics = products.metrics;
    return record;
}

double
ratePerKilocycle(std::uint64_t count, std::uint64_t cycles)
{
    return 1000.0 * static_cast<double>(count)
        / static_cast<double>(cycles ? cycles : 1);
}

/**
 * JSON key of the first reported quantile that lies in @p histogram's
 * overflow bucket, or null when all of them were measured.
 */
const char *
firstClampedQuantile(const Histogram &histogram)
{
    for (const ReportedQuantile &q : kReportedQuantiles)
        if (histogram.quantileClamped(q.p))
            return q.key;
    return nullptr;
}

} // namespace

bool
runScenario(const ScenarioSpec &spec, const ScenarioRunOptions &options,
            ScenarioOutcome *out, std::string *error)
{
    ScenarioOutcome outcome;
    outcome.spec = spec;

    RunProducts shared;
    if (!runOnce(spec, -1, spec.warmupCompletions, options.security,
                 &shared, error))
        return false;
    outcome.base = condenseBase(spec, shared, 0, scenarioPointId(spec),
                                "scenario:" + spec.name);
    outcome.service = shared.service;

    // Per-tenant condensation from the shared run.
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        const ServiceScopeSnapshot &scope = shared.service.perTenant[i];
        TenantOutcome tenant;
        tenant.name = spec.tenants[i].name;
        tenant.closedLoop = spec.tenants[i].closedLoop;
        tenant.scope = scope;
        tenant.demandPerKilocycle =
            ratePerKilocycle(scope.offered,
                             shared.service.measuredCycles);
        tenant.achievedPerKilocycle =
            ratePerKilocycle(scope.completed,
                             shared.service.measuredCycles);
        outcome.tenants.push_back(std::move(tenant));
    }

    // Isolation baselines: the same service shape, one tenant talking.
    if (options.isolation) {
        // Scale the warmup boundary to one tenant's share so a light
        // source still opens its measured window.
        const std::uint64_t iso_warmup =
            spec.warmupCompletions / spec.tenants.size();
        for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
            RunProducts alone;
            if (!runOnce(spec, static_cast<int>(i), iso_warmup, false,
                         &alone, error))
                return false;
            IsolationRecord record;
            record.tenant = spec.tenants[i].name;
            record.base = condenseBase(
                spec, alone, 1 + i,
                scenarioPointId(spec) + "/iso/" + spec.tenants[i].name,
                "scenario:" + spec.name + ":iso:"
                    + spec.tenants[i].name);
            record.service = alone.service;
            outcome.isolationRuns.push_back(std::move(record));

            TenantOutcome &tenant = outcome.tenants[i];
            const ServiceScopeSnapshot &iso =
                alone.service.perTenant[i];
            tenant.isolated = true;
            tenant.isolatedMean = iso.latency.mean();
            tenant.isolatedP99 = iso.latency.quantile(0.99);
            tenant.slowdownMean = slowdownOf(tenant.scope.latency.mean(),
                                             tenant.isolatedMean);
            tenant.slowdownP99 =
                slowdownOf(tenant.scope.latency.quantile(0.99),
                           tenant.isolatedP99);
        }
    }

    // Fairness scalars.
    std::vector<double> achieved;
    std::vector<double> slowdowns;
    for (const TenantOutcome &tenant : outcome.tenants) {
        achieved.push_back(tenant.achievedPerKilocycle);
        slowdowns.push_back(tenant.slowdownP99);
    }
    outcome.jainAchieved = jainIndex(achieved);
    outcome.jainSlowdown =
        options.isolation ? jainIndex(slowdowns) : 1.0;

    // Security gates over the merged attacker view, evaluated only when
    // the trace can fill the smallest uniformity histogram.
    ScenarioSecurity &security = outcome.security;
    security.requested = options.security;
    security.leafObservations = shared.leaves.size();
    security.evaluated = options.security
        && shared.leaves.size() >= kMinBins * kMinPerBin
        && shared.leafSpace >= kMinBins;
    if (security.evaluated) {
        security.chiSquare = leafUniformity(
            shared.leaves, shared.leafSpace,
            uniformityBins(shared.leaves.size(), shared.leafSpace));
        security.serialCorrelation = serialCorrelation(shared.leaves);
        if (!shared.metrics.samples.empty())
            security.attacker = fitAttackerModel(shared.metrics.samples);
        security.miEvaluated = security.attacker.stashSamples >= 50
            && security.attacker.treeSamples >= 50;
        if (security.miEvaluated)
            security.mutualInformationBits = mutualInformation(
                security.attacker.p1, security.attacker.p2);
    }

    *out = std::move(outcome);
    return true;
}

bool
scenarioSanityCheck(const ScenarioOutcome &outcome,
                    std::vector<std::string> *problems)
{
    bool clean = true;
    const auto report = [&](const std::string &message) {
        clean = false;
        if (problems)
            problems->push_back(message);
    };
    const std::string &id = outcome.base.point.id;
    const ServiceScopeSnapshot &global = outcome.service.global;
    // A quantile in the overflow bucket reads as the bucket's midpoint
    // whatever the real tail is, and so do the quantiles above it.
    const auto check_tails = [&](const std::string &at,
                                 const ServiceScopeSnapshot &scope) {
        if (const char *q = firstClampedQuantile(scope.latency))
            report(at + ": latency " + q + " and above lie in the "
                   "histogram's overflow bucket (a constant)");
        if (const char *q = firstClampedQuantile(scope.queueingDelay))
            report(at + ": queueing delay " + q + " and above lie in "
                   "the histogram's overflow bucket (a constant)");
    };

    if (outcome.base.metrics.stashOverflowed)
        report(id + ": stash overflowed");
    if (global.completed == 0)
        report(id + ": no responses completed");
    if (global.accepted != global.completed)
        report(id + ": " + std::to_string(global.accepted)
               + " accepted but " + std::to_string(global.completed)
               + " completed (lost requests)");
    if (global.latency.quantile(0.99) < global.latency.quantile(0.50))
        report(id + ": latency quantiles out of order");
    check_tails(id, global);

    std::uint64_t offered = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    for (const TenantOutcome &tenant : outcome.tenants) {
        const std::string at = id + " tenant " + tenant.name;
        if (tenant.scope.accepted != tenant.scope.completed)
            report(at + ": accepted != completed after drain");
        if (tenant.scope.latency.quantile(0.99)
            < tenant.scope.latency.quantile(0.50))
            report(at + ": latency quantiles out of order");
        check_tails(at, tenant.scope);
        offered += tenant.scope.offered;
        accepted += tenant.scope.accepted;
        rejected += tenant.scope.rejected;
        completed += tenant.scope.completed;
    }
    if (offered != global.offered || accepted != global.accepted
        || rejected != global.rejected || completed != global.completed)
        report(id + ": per-tenant sums disagree with the global scope");

    for (const IsolationRecord &record : outcome.isolationRuns)
        if (record.base.metrics.stashOverflowed)
            report(record.base.point.id + ": stash overflowed");

    if (outcome.security.requested && !outcome.security.evaluated)
        report(id + ": "
               + std::to_string(outcome.security.leafObservations)
               + " leaf observations, too few for the security gates");
    if (outcome.security.evaluated && !outcome.security.pass())
        report(id + ": merged-trace security gates failed");
    return clean;
}

} // namespace palermo
