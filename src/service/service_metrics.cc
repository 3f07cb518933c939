/**
 * @file
 * Service-metric condensation and the "service" JSON block writer.
 */

#include "service/service_metrics.hh"

#include "sim/metrics_json.hh"

namespace palermo {

void
ServiceStats::reset()
{
    offered = 0;
    accepted = 0;
    rejected = 0;
    completed = 0;
    latency.reset();
    queueingDelay.reset();
}

namespace {

/** Shared latency/queueing-delay summary shape. */
void
writeHistogramSummary(JsonWriter &w, const Histogram &histogram)
{
    w.beginObject();
    w.field("count", histogram.count());
    w.field("mean", histogram.mean());
    w.field("min", histogram.min());
    for (const ReportedQuantile &q : kReportedQuantiles)
        w.field(q.key, histogram.quantile(q.p));
    w.field("max", histogram.max());
    w.endObject();
}

} // namespace

void
writeServiceScope(JsonWriter &w, const ServiceScopeSnapshot &scope)
{
    w.beginObject();
    w.field("offered", scope.offered);
    w.field("accepted", scope.accepted);
    w.field("rejected", scope.rejected);
    w.field("completed", scope.completed);
    w.key("latency");
    writeHistogramSummary(w, scope.latency);
    w.key("queueing_delay");
    writeHistogramSummary(w, scope.queueingDelay);
    w.endObject();
}

void
writeServiceSnapshot(JsonWriter &w, const ServiceSnapshot &snapshot)
{
    w.beginObject();
    w.field("measured_cycles", snapshot.measuredCycles);
    w.field("offered_per_kilocycle", snapshot.offeredPerKilocycle);
    w.field("achieved_per_kilocycle", snapshot.achievedPerKilocycle);
    w.key("queue").beginObject();
    w.field("capacity", static_cast<std::uint64_t>(snapshot.queueCapacity));
    w.field("policy", queuePolicyName(snapshot.queuePolicy));
    w.field("high_watermark",
            static_cast<std::uint64_t>(snapshot.queueHighWatermark));
    w.endObject();
    w.key("global");
    writeServiceScope(w, snapshot.global);
    w.key("per_tenant").beginArray();
    for (const ServiceScopeSnapshot &scope : snapshot.perTenant)
        writeServiceScope(w, scope);
    w.endArray();
    w.endObject();
}

} // namespace palermo
