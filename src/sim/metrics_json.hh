/**
 * @file
 * Stable-schema JSON rendering of experiment results.
 *
 * Every figure, ablation, and CI gate consumes the same document shape
 * ("palermo-metrics-v1"): a provenance header (tool, git describe,
 * schema version), one entry per design point with its full
 * SystemConfig and RunMetrics, and a sorted map of derived scalars
 * (gmeans, ratios) the producing tool computed across points. Output
 * is byte-deterministic: fixed key order, shortest-round-trip number
 * formatting via std::to_chars, no timestamps or host data — the same
 * grid renders to the same bytes whether it ran on 1 thread or 16.
 */

#ifndef PALERMO_SIM_METRICS_JSON_HH
#define PALERMO_SIM_METRICS_JSON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace palermo {

/**
 * Minimal streaming JSON writer with deterministic formatting.
 * Two-space pretty printing; keys are emitted in call order, so a
 * fixed call sequence yields a stable schema.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by a value or container. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(bool v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);

    /** Shorthand for key(name) followed by value(v). */
    template <typename T>
    JsonWriter &
    field(const std::string &name, T v)
    {
        key(name);
        return value(v);
    }

    /** Finished document text (call after the final end*()). */
    const std::string &str() const { return out_; }

  private:
    void prepareValue();
    void newline();

    std::string out_;
    std::vector<bool> inArray_;
    std::vector<std::size_t> counts_;
    bool pendingKey_ = false;
};

/** Backslash-escape a string for embedding in JSON. */
std::string jsonEscape(const std::string &text);

/**
 * Deterministic number rendering: shortest round-trip form for finite
 * values, "null" for NaN/infinity (JSON has no encoding for them).
 */
std::string jsonNumber(double value);

/**
 * Build provenance: the PALERMO_GIT_DESCRIBE environment variable when
 * set (for regenerating committed artifacts with the provenance of the
 * commit they describe), else the configure-time git describe, else
 * "unknown". Comparison tools (perf_compare, the determinism golden)
 * ignore the provenance line when diffing.
 */
const char *gitDescribe();

/** The machine a document's host timings were measured on. */
struct HostInfo
{
    unsigned cores = 0;   ///< CPUs this process may run on (as nproc).
    std::string cpuModel; ///< /proc/cpuinfo "model name", or "unknown".

    /** Probe the current host. */
    static HostInfo probe();
};

/** Renders RunRecords as "palermo-metrics-v1" documents. */
class MetricsJson
{
  public:
    static constexpr const char *kSchema = "palermo-metrics-v1";

    /**
     * Render a full document.
     * @param tool Producing binary ("palermo_run", "bench_fig10", ...).
     * @param records Design points with their measured metrics.
     * @param derived Cross-point scalars (sorted map: stable order).
     * @param host When set, stamped into the generator object (only
     *        documents that carry host timings pass one).
     */
    static std::string document(
        const std::string &tool, const std::vector<RunRecord> &records,
        const std::map<std::string, double> &derived = {},
        const HostInfo *host = nullptr);

    /**
     * Append the schema/generator provenance header fields. Documents
     * with a different shape (e.g. bench_fig15's areapower-v1) pass
     * their own schema name so the provenance layout stays shared.
     * A non-null @p host adds "host_cores" and "cpu_model".
     */
    static void writeHeader(JsonWriter &w, const std::string &tool,
                            const std::string &schema = kSchema,
                            const HostInfo *host = nullptr);

    /**
     * Append one design-point entry (object) to an open array. When
     * @p extra is set it runs before the closing brace, so producers
     * with additional per-point blocks (the serving layer's "service"
     * object) extend the schema without forking the record shape.
     */
    static void writeRecord(
        JsonWriter &w, const RunRecord &record,
        const std::function<void(JsonWriter &)> &extra = nullptr);

    /**
     * Append the "derived" cross-point scalar map (sorted, so the
     * rendering is order-stable regardless of insertion order).
     */
    static void writeDerived(JsonWriter &w,
                             const std::map<std::string, double> &derived);

    /** Append a SystemConfig object under the current key. */
    static void writeConfig(JsonWriter &w, const SystemConfig &config);

    /** Append a RunMetrics object under the current key. */
    static void writeMetrics(JsonWriter &w, const RunMetrics &metrics);

    /**
     * Write a document to a file ("-" for stdout). Returns false on
     * I/O failure.
     */
    static bool writeFile(const std::string &path,
                          const std::string &document);
};

} // namespace palermo

#endif // PALERMO_SIM_METRICS_JSON_HH
