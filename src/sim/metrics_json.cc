/**
 * @file
 * JsonWriter and the palermo-metrics-v1 document renderer.
 */

#include "sim/metrics_json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/log.hh"

namespace palermo {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void
JsonWriter::newline()
{
    out_.push_back('\n');
    out_.append(2 * counts_.size(), ' ');
}

void
JsonWriter::prepareValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (counts_.empty())
        return;
    if (counts_.back() > 0)
        out_.push_back(',');
    newline();
    ++counts_.back();
}

JsonWriter &
JsonWriter::beginObject()
{
    prepareValue();
    out_.push_back('{');
    inArray_.push_back(false);
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    palermo_assert(!inArray_.empty() && !inArray_.back());
    const bool had_members = counts_.back() > 0;
    inArray_.pop_back();
    counts_.pop_back();
    if (had_members)
        newline();
    out_.push_back('}');
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prepareValue();
    out_.push_back('[');
    inArray_.push_back(true);
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    palermo_assert(!inArray_.empty() && inArray_.back());
    const bool had_members = counts_.back() > 0;
    inArray_.pop_back();
    counts_.pop_back();
    if (had_members)
        newline();
    out_.push_back(']');
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    palermo_assert(!inArray_.empty() && !inArray_.back());
    palermo_assert(!pendingKey_);
    if (counts_.back() > 0)
        out_.push_back(',');
    newline();
    ++counts_.back();
    out_.push_back('"');
    out_.append(jsonEscape(name));
    out_.append("\": ");
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    prepareValue();
    out_.append(v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    prepareValue();
    out_.append(jsonNumber(v));
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    prepareValue();
    out_.append(std::to_string(v));
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    prepareValue();
    out_.append(std::to_string(v));
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    prepareValue();
    out_.push_back('"');
    out_.append(jsonEscape(v));
    out_.push_back('"');
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out.append("\\\""); break;
          case '\\': out.append("\\\\"); break;
          case '\n': out.append("\\n"); break;
          case '\r': out.append("\\r"); break;
          case '\t': out.append("\\t"); break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out.append(buf);
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto result =
        std::to_chars(buf, buf + sizeof(buf), value);
    palermo_assert(result.ec == std::errc());
    return std::string(buf, result.ptr);
}

const char *
gitDescribe()
{
    // Runtime override first: committed artifacts (BENCH_*.json,
    // goldens) must carry the provenance of the commit they describe,
    // not the "-dirty" describe of whatever tree regenerated them.
    // Diff tools ignore the generator object either way; the override
    // keeps the committed bytes honest and stable.
    static const char *const override_ =
        std::getenv("PALERMO_GIT_DESCRIBE");
    if (override_ != nullptr && override_[0] != '\0')
        return override_;
#ifdef PALERMO_GIT_DESCRIBE
    return PALERMO_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

HostInfo
HostInfo::probe()
{
    HostInfo host;
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        host.cores = static_cast<unsigned>(CPU_COUNT(&set));
#endif
    if (host.cores == 0)
        host.cores = std::thread::hardware_concurrency();

    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        const std::size_t start = colon == std::string::npos
            ? std::string::npos : line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos)
            host.cpuModel = line.substr(start);
        break;
    }
    if (host.cpuModel.empty())
        host.cpuModel = "unknown";
    return host;
}

// ---------------------------------------------------------------------------
// MetricsJson
// ---------------------------------------------------------------------------

void
MetricsJson::writeHeader(JsonWriter &w, const std::string &tool,
                         const std::string &schema, const HostInfo *host)
{
    w.field("schema", schema);
    w.key("generator").beginObject();
    w.field("tool", tool);
    w.field("git", gitDescribe());
    if (host != nullptr) {
        w.field("host_cores", host->cores);
        w.field("cpu_model", host->cpuModel);
    }
    w.endObject();
}

void
MetricsJson::writeConfig(JsonWriter &w, const SystemConfig &config)
{
    w.beginObject();
    w.field("blocks", config.protocol.numBlocks);
    w.field("pos_fanout", config.protocol.posFanout);
    w.field("ring_z", config.protocol.ringZ);
    w.field("ring_s", config.protocol.ringS);
    w.field("ring_a", config.protocol.ringA);
    w.field("path_z", config.protocol.pathZ);
    w.field("page_z", config.protocol.pageZ);
    w.field("prefetch_len", config.protocol.prefetchLen);
    w.field("fat_tree", config.protocol.fatTree);
    w.field("throttle", config.protocol.throttle);
    w.field("stash_capacity", config.protocol.stashCapacity);
    w.field("pr_stash_capacity", config.protocol.prStashCapacity);
    w.key("treetop_bytes").beginArray();
    for (std::uint64_t bytes : config.protocol.treetopBytes)
        w.value(bytes);
    w.endArray();
    w.key("dram").beginObject();
    w.field("timing", config.dram.timing.name);
    w.field("channels", config.dram.org.channels);
    w.field("queue_depth", config.dram.queueDepth);
    w.field("clock_ghz", config.dram.timing.clockGHz);
    w.endObject();
    w.key("palermo").beginObject();
    w.field("pe_columns", config.palermo.columns);
    w.field("issue_per_pe", config.palermo.issuePerPe);
    w.field("posmap3_latency", config.palermo.posmap3Latency);
    w.endObject();
    w.field("serial_issue_width", config.serialIssueWidth);
    w.field("decrypt_latency", config.decryptLatency);
    w.field("total_requests", config.totalRequests);
    w.field("warmup_fraction", config.warmupFraction);
    w.field("constant_rate", config.constantRate);
    w.field("issue_interval", config.issueInterval);
    w.endObject();
}

void
MetricsJson::writeMetrics(JsonWriter &w, const RunMetrics &metrics)
{
    w.beginObject();
    w.field("measured_requests", metrics.measuredRequests);
    w.field("measured_cycles", metrics.measuredCycles);
    w.field("requests_per_kilocycle", metrics.requestsPerKilocycle);
    w.field("misses_per_second", metrics.missesPerSecond);
    w.field("bw_utilization", metrics.bwUtilization);
    w.field("avg_outstanding", metrics.avgOutstanding);
    w.field("row_hit_rate", metrics.rowHitRate);
    w.field("row_conflict_rate", metrics.rowConflictRate);
    w.field("avg_read_latency", metrics.avgReadLatency);
    w.field("dram_reads", metrics.dramReads);
    w.field("dram_writes", metrics.dramWrites);
    w.field("reads_per_request", metrics.readsPerRequest);
    w.field("writes_per_request", metrics.writesPerRequest);
    w.field("sync_fraction", metrics.syncFraction);
    w.key("level_dram_share").beginArray();
    for (double share : metrics.levelDramShare)
        w.value(share);
    w.endArray();
    w.key("level_sync_share").beginArray();
    for (double share : metrics.levelSyncShare)
        w.value(share);
    w.endArray();
    w.key("latency").beginObject();
    w.field("count", metrics.latency.count());
    w.field("mean", metrics.latency.mean());
    w.field("min", metrics.latency.min());
    w.field("p10", metrics.latency.quantile(0.10));
    w.field("p50", metrics.latency.quantile(0.50));
    w.field("p90", metrics.latency.quantile(0.90));
    w.field("p99", metrics.latency.quantile(0.99));
    w.field("max", metrics.latency.max());
    w.endObject();
    w.key("stash").beginObject();
    w.field("max", metrics.stashMax);
    w.field("capacity", metrics.stashCapacity);
    w.field("overflowed", metrics.stashOverflowed);
    w.key("samples").beginArray();
    for (std::size_t sample : metrics.stashSamples)
        w.value(sample);
    w.endArray();
    w.endObject();
    w.field("served", metrics.served);
    w.field("dummies", metrics.dummies);
    w.field("llc_hits", metrics.llcHits);
    w.field("dummy_ratio", metrics.dummyRatio);
    w.endObject();
}

void
MetricsJson::writeRecord(JsonWriter &w, const RunRecord &record,
                         const std::function<void(JsonWriter &)> &extra)
{
    w.beginObject();
    w.field("id", record.point.id);
    w.field("protocol", protocolKindName(record.point.kind));
    w.field("workload", record.point.workloadLabel.empty()
                ? std::string(workloadName(record.point.workload))
                : record.point.workloadLabel);
    w.field("seed", record.point.config.seed);
    w.field("allow_stash_overflow", record.point.allowStashOverflow);
    w.key("config");
    writeConfig(w, record.point.config);
    w.key("metrics");
    writeMetrics(w, record.metrics);
    if (extra)
        extra(w);
    w.endObject();
}

void
MetricsJson::writeDerived(JsonWriter &w,
                          const std::map<std::string, double> &derived)
{
    w.key("derived").beginObject();
    for (const auto &[name, value] : derived)
        w.field(name, value);
    w.endObject();
}

std::string
MetricsJson::document(const std::string &tool,
                      const std::vector<RunRecord> &records,
                      const std::map<std::string, double> &derived,
                      const HostInfo *host)
{
    JsonWriter w;
    w.beginObject();
    writeHeader(w, tool, kSchema, host);
    w.key("points").beginArray();
    for (const RunRecord &record : records)
        writeRecord(w, record);
    w.endArray();
    writeDerived(w, derived);
    w.endObject();
    std::string text = w.str();
    text.push_back('\n');
    return text;
}

bool
MetricsJson::writeFile(const std::string &path,
                       const std::string &document)
{
    if (path == "-") {
        std::fwrite(document.data(), 1, document.size(), stdout);
        return true;
    }
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file) {
        warn("cannot open '%s' for writing", path.c_str());
        return false;
    }
    const std::size_t written =
        std::fwrite(document.data(), 1, document.size(), file);
    const bool closed = std::fclose(file) == 0;
    const bool ok = written == document.size() && closed;
    if (!ok)
        warn("short write to '%s'", path.c_str());
    return ok;
}

} // namespace palermo
