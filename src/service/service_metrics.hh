/**
 * @file
 * Serving-layer statistics: what the saturation curves are made of.
 *
 * The simulator's RunMetrics describe the ORAM/DRAM machinery; the
 * serving layer adds the client-visible view — end-to-end response
 * latency (arrival to completion, queueing included), queueing delay
 * (arrival to controller admission), and offered vs achieved rate —
 * tracked globally and per tenant. ServiceStats is the live
 * accumulator; ServiceSnapshot is the condensed, copyable view the
 * JSON writer renders into the "service" block of a
 * palermo-metrics-v1 record.
 *
 * Histograms span 200k cycles at 100-cycle buckets: wide enough that
 * p99.9 stays inside the regular buckets everywhere below saturation,
 * with the overflow bucket (plus the exact max) absorbing the
 * above-saturation blow-up.
 */

#ifndef PALERMO_SERVICE_SERVICE_METRICS_HH
#define PALERMO_SERVICE_SERVICE_METRICS_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "service/request_queue.hh"

namespace palermo {

class JsonWriter;

/** Live accumulator for one scope (global or a single tenant). */
struct ServiceStats
{
    std::uint64_t offered = 0;   ///< Arrivals resolved (accept+reject).
    std::uint64_t accepted = 0;  ///< Arrivals that entered the queue.
    std::uint64_t rejected = 0;  ///< Arrivals dropped by backpressure.
    std::uint64_t completed = 0; ///< Responses delivered.

    Histogram latency{100.0, 2000};       ///< Arrival -> completion.
    Histogram queueingDelay{100.0, 2000}; ///< Arrival -> admission.

    /** Warmup boundary: forget everything accumulated so far. */
    void reset();
};

/** Condensed per-scope view (plain data, safe to copy around). */
struct ServiceScopeSnapshot
{
    std::uint64_t offered = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    Histogram latency{100.0, 2000};
    Histogram queueingDelay{100.0, 2000};
};

/** Everything a saturation-curve point needs from one service run. */
struct ServiceSnapshot
{
    /** Cycles since the measurement boundary (>= 1). */
    std::uint64_t measuredCycles = 1;

    /** Arrivals resolved per kilocycle in the measured window. */
    double offeredPerKilocycle = 0.0;
    /** Completions per kilocycle in the measured window. */
    double achievedPerKilocycle = 0.0;

    ServiceScopeSnapshot global;
    std::vector<ServiceScopeSnapshot> perTenant;

    // Queue state (whole-run, not warmup-gated: capacity pressure is
    // a property of the run, not of the measured window).
    std::size_t queueCapacity = 0;
    QueuePolicy queuePolicy = QueuePolicy::Reject;
    std::size_t queueHighWatermark = 0;
};

/** One quantile a latency summary reports, with its JSON key. */
struct ReportedQuantile
{
    double p;
    const char *key;
};

/** The quantiles every latency and queueing-delay summary reports. */
inline constexpr ReportedQuantile kReportedQuantiles[] = {
    {0.50, "p50"}, {0.95, "p95"}, {0.99, "p99"}, {0.999, "p999"}};

/**
 * Append one scope as a JSON object under the current key: counters,
 * rates, and kReportedQuantiles of latency and queueing delay.
 * Deterministic field order; byte-stable across runs.
 */
void writeServiceScope(JsonWriter &w, const ServiceScopeSnapshot &scope);

/** Append a full service snapshot object under the current key. */
void writeServiceSnapshot(JsonWriter &w, const ServiceSnapshot &snapshot);

} // namespace palermo

#endif // PALERMO_SERVICE_SERVICE_METRICS_HH
