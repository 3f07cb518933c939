/**
 * @file
 * perf_compare: gate a fresh bench_sim_speed run against a committed
 * baseline.
 *
 * Two kinds of comparison, because the document mixes two kinds of
 * numbers:
 *   - Simulated results (measured_cycles, served, dram_reads,
 *     dram_writes per point) are deterministic for a given config and
 *     are compared EXACTLY. Any drift means simulated behavior
 *     changed, which a perf refactor must not do.
 *   - Host-side speed keys (derived "speed.<id>.*") vary with the
 *     machine and are compared with a relative tolerance, in the
 *     direction that means "worse": requests_per_second may not drop
 *     below (1 - tolerance) x baseline; heap_allocs_per_request and
 *     peak_rss_mb may not exceed (1 + tolerance) x baseline (+ an
 *     absolute slack for allocs, where the baseline is near zero).
 *
 * Points are matched by id; the fresh run may cover a subset of the
 * baseline grid (CI runs the small sizes only), but every fresh point
 * must exist in the baseline with an identical config. --fresh may be
 * repeated: the fresh run is then the union of the documents' points
 * and derived keys, so each point can come from its own process (a
 * point's peak RSS is then its own, not lifted by heap an earlier
 * point freed). A point id may appear in only one of them.
 *
 * The documents' generator object (tool name, git provenance) is
 * deliberately excluded from every comparison: provenance describes
 * who rendered the bytes, not what was simulated. A baseline whose
 * provenance ends in "-dirty" draws a warning — regenerate it with
 * PALERMO_GIT_DESCRIBE set to the commit it belongs to.
 *
 * Exit status: 0 pass, 1 regression, 2 usage/I-O/incomparable inputs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json_value.hh"
#include "sim/run_cli.hh"
#include "sim/sweep.hh"

using namespace palermo;

namespace {

struct CompareOptions
{
    std::string baselinePath;
    std::vector<std::string> freshPaths;
    std::string markdownPath; ///< Per-point speedup table, or empty.
    double tolerance = 0.50; ///< Relative, on host-speed keys.
    double allocSlack = 2.0; ///< Absolute allocs/request headroom.
};

void
usage()
{
    std::fputs(
        "usage: perf_compare --baseline FILE --fresh FILE... "
        "[--tolerance F] [--alloc-slack N] [--markdown FILE]\n"
        "  --baseline FILE   committed bench_sim_speed document\n"
        "  --fresh FILE      document from the run under test; repeat\n"
        "                    it to compare the union of several\n"
        "                    documents' points\n"
        "  --tolerance F     relative slack on host-speed keys "
        "(default 0.50)\n"
        "  --alloc-slack N   absolute allocs/request headroom "
        "(default 2)\n"
        "  --markdown FILE   also render the comparison as a GitHub\n"
        "                    markdown table (for $GITHUB_STEP_SUMMARY)\n",
        stderr);
}

bool
parseCompareArgs(int argc, const char *const *argv,
                 CompareOptions *options, std::string *error)
{
    CompareOptions result;
    ArgCursor cursor(argc, argv);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        std::string value;
        if (name == "--help" || name == "-h") {
            usage();
            std::exit(0);
        } else if (name == "--baseline") {
            if (!cursor.value(&value)) {
                *error = "--baseline needs a path";
                return false;
            }
            result.baselinePath = value;
        } else if (name == "--fresh") {
            if (!cursor.value(&value)) {
                *error = "--fresh needs a path";
                return false;
            }
            result.freshPaths.push_back(value);
        } else if (name == "--markdown") {
            if (!cursor.value(&value)) {
                *error = "--markdown needs a path";
                return false;
            }
            result.markdownPath = value;
        } else if (name == "--tolerance") {
            if (!cursor.value(&value)) {
                *error = "--tolerance needs a fraction";
                return false;
            }
            char *end = nullptr;
            result.tolerance = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0'
                || result.tolerance < 0.0) {
                *error = "--tolerance needs a nonnegative fraction";
                return false;
            }
        } else if (name == "--alloc-slack") {
            if (!cursor.value(&value)) {
                *error = "--alloc-slack needs a number";
                return false;
            }
            char *end = nullptr;
            result.allocSlack = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0'
                || result.allocSlack < 0.0) {
                *error = "--alloc-slack needs a nonnegative number";
                return false;
            }
        } else {
            *error = "unknown flag '" + name + "'";
            return false;
        }
    }
    if (result.baselinePath.empty() || result.freshPaths.empty()) {
        *error = "--baseline and --fresh are both required";
        return false;
    }
    *options = result;
    return true;
}

bool
loadDocument(const std::string &path, JsonValue *out, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!JsonValue::parse(buffer.str(), out, error)) {
        *error = path + ":" + *error;
        return false;
    }
    const JsonValue *schema = out->find("schema");
    if (schema == nullptr || !schema->isString()
        || schema->string() != "palermo-metrics-v1") {
        *error = "'" + path + "' is not a palermo-metrics-v1 document";
        return false;
    }
    return true;
}

/** Structural equality (objects compared in document order). */
bool
jsonEqual(const JsonValue &a, const JsonValue &b)
{
    if (a.kind() != b.kind())
        return false;
    switch (a.kind()) {
      case JsonValue::Kind::Null:
        return true;
      case JsonValue::Kind::Bool:
        return a.boolean() == b.boolean();
      case JsonValue::Kind::Number:
        return a.number() == b.number();
      case JsonValue::Kind::String:
        return a.string() == b.string();
      case JsonValue::Kind::Array: {
        if (a.array().size() != b.array().size())
            return false;
        for (std::size_t i = 0; i < a.array().size(); ++i) {
            if (!jsonEqual(a.array()[i], b.array()[i]))
                return false;
        }
        return true;
      }
      case JsonValue::Kind::Object: {
        if (a.members().size() != b.members().size())
            return false;
        for (std::size_t i = 0; i < a.members().size(); ++i) {
            if (a.members()[i].first != b.members()[i].first
                || !jsonEqual(a.members()[i].second,
                              b.members()[i].second))
                return false;
        }
        return true;
      }
    }
    return false;
}

const JsonValue *
findPoint(const JsonValue &document, const std::string &id)
{
    const JsonValue *points = document.find("points");
    if (points == nullptr || !points->isArray())
        return nullptr;
    for (const JsonValue &point : points->array()) {
        const JsonValue *point_id = point.find("id");
        if (point_id != nullptr && point_id->isString()
            && point_id->string() == id)
            return &point;
    }
    return nullptr;
}

/** Simulated per-point fields that must match exactly. */
const char *const kExactMetrics[] = {
    "measured_requests",
    "measured_cycles",
    "served",
    "dram_reads",
    "dram_writes",
};

int failures = 0;

void
failure(const std::string &message)
{
    ++failures;
    std::fprintf(stderr, "perf_compare: FAIL: %s\n", message.c_str());
}

std::string
formatNumber(double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%.6g", value);
    return text;
}

/** One rendered row of the --markdown table. */
struct MarkdownRow
{
    std::string id;
    double freshRps = -1.0;
    double baseRps = -1.0;
    double freshAllocs = -1.0;
    double freshRss = -1.0;
    bool ok = true;
};

/** Render the per-point speedup table for $GITHUB_STEP_SUMMARY. */
bool
writeMarkdown(const std::string &path,
              const std::vector<MarkdownRow> &rows, double tolerance,
              int failure_count)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "### bench_sim_speed vs committed baseline\n\n";
    out << "| point | req/s | baseline req/s | speedup | allocs/req "
        << "| peak RSS (MiB) | status |\n";
    out << "|---|---:|---:|---:|---:|---:|---|\n";
    for (const MarkdownRow &row : rows) {
        char line[256];
        const double speedup = row.baseRps > 0.0 && row.freshRps >= 0.0
            ? row.freshRps / row.baseRps
            : 0.0;
        std::snprintf(line, sizeof(line),
                      "| `%s` | %.1f | %.1f | %.2fx | %.2f | %.1f "
                      "| %s |\n",
                      row.id.c_str(), row.freshRps, row.baseRps,
                      speedup, row.freshAllocs, row.freshRss,
                      row.ok ? "ok" : "**FAIL**");
        out << line;
    }
    out << "\n";
    if (failure_count != 0) {
        out << "**" << failure_count << " regression"
            << (failure_count == 1 ? "" : "s")
            << "** (tolerance " << formatNumber(tolerance) << ")\n";
    } else {
        out << "No regressions (tolerance " << formatNumber(tolerance)
            << ").\n";
    }
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    CompareOptions options;
    std::string error;
    if (!parseCompareArgs(argc - 1, argv + 1, &options, &error)) {
        std::fprintf(stderr, "perf_compare: %s\n", error.c_str());
        usage();
        return 2;
    }

    JsonValue baseline;
    std::vector<JsonValue> fresh(options.freshPaths.size());
    bool loaded = loadDocument(options.baselinePath, &baseline, &error);
    for (std::size_t i = 0; loaded && i < fresh.size(); ++i)
        loaded = loadDocument(options.freshPaths[i], &fresh[i], &error);
    if (!loaded) {
        std::fprintf(stderr, "perf_compare: %s\n", error.c_str());
        return 2;
    }

    // Provenance is ignored in all comparisons below, but a dirty
    // baseline is a hygiene bug worth flagging: its numbers cannot be
    // attributed to any commit.
    const JsonValue *base_git = baseline.at("generator.git");
    if (base_git != nullptr && base_git->isString()
        && base_git->string().size() >= 6
        && base_git->string().substr(base_git->string().size() - 6)
               == "-dirty") {
        std::fprintf(stderr,
                     "perf_compare: warning: baseline provenance '%s' "
                     "is dirty; regenerate it with PALERMO_GIT_DESCRIBE "
                     "set to the owning commit\n",
                     base_git->string().c_str());
    }

    // The fresh run: the union of every fresh document's points.
    std::vector<const JsonValue *> fresh_points;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        const JsonValue *points = fresh[i].find("points");
        if (points == nullptr || !points->isArray()
            || points->array().empty()) {
            std::fprintf(stderr, "perf_compare: '%s' holds no points\n",
                         options.freshPaths[i].c_str());
            return 2;
        }
        for (const JsonValue &point : points->array())
            fresh_points.push_back(&point);
    }

    // Pass 1: simulated results, exact.
    std::vector<std::string> fresh_ids;
    for (const JsonValue *fresh_point : fresh_points) {
        const JsonValue &point = *fresh_point;
        const JsonValue *id = point.find("id");
        if (id == nullptr || !id->isString()) {
            std::fprintf(stderr,
                         "perf_compare: fresh point without id\n");
            return 2;
        }
        if (std::find(fresh_ids.begin(), fresh_ids.end(), id->string())
            != fresh_ids.end()) {
            std::fprintf(stderr,
                         "perf_compare: fresh point '%s' appears twice\n",
                         id->string().c_str());
            return 2;
        }
        fresh_ids.push_back(id->string());
        const JsonValue *base_point = findPoint(baseline, id->string());
        if (base_point == nullptr) {
            std::fprintf(stderr,
                         "perf_compare: baseline lacks point '%s'\n",
                         id->string().c_str());
            return 2;
        }

        const JsonValue *fresh_config = point.find("config");
        const JsonValue *base_config = base_point->find("config");
        if (fresh_config == nullptr || base_config == nullptr
            || !jsonEqual(*fresh_config, *base_config)) {
            std::fprintf(stderr,
                         "perf_compare: point '%s' config differs from "
                         "the baseline (not comparable; refresh the "
                         "baseline?)\n",
                         id->string().c_str());
            return 2;
        }

        for (const char *field : kExactMetrics) {
            const JsonValue *fresh_value =
                point.at(std::string("metrics.") + field);
            const JsonValue *base_value =
                base_point->at(std::string("metrics.") + field);
            if (fresh_value == nullptr || base_value == nullptr
                || !fresh_value->isNumber() || !base_value->isNumber()) {
                std::fprintf(stderr,
                             "perf_compare: point '%s' lacks metric "
                             "'%s'\n",
                             id->string().c_str(), field);
                return 2;
            }
            if (fresh_value->number() != base_value->number()) {
                failure("point '" + id->string() + "' " + field + ": "
                        + formatNumber(fresh_value->number())
                        + " != baseline "
                        + formatNumber(base_value->number())
                        + " (simulated behavior changed)");
            }
        }
    }

    // Pass 2: host-speed keys, with tolerance, for the fresh ids.
    const auto lookup = [](const JsonValue &document,
                           const std::string &key) -> double {
        const JsonValue *derived = document.find("derived");
        const JsonValue *value = derived ? derived->find(key) : nullptr;
        return value != nullptr && value->isNumber() ? value->number()
                                                     : -1.0;
    };
    // The fresh derived keys are the union of the documents' keys.
    const auto lookupFresh = [&](const std::string &key) -> double {
        for (const JsonValue &document : fresh) {
            const double value = lookup(document, key);
            if (value >= 0.0)
                return value;
        }
        return -1.0;
    };
    std::size_t speed_checks = 0;
    std::vector<MarkdownRow> markdown_rows;
    for (const std::string &id : fresh_ids) {
        const int failures_before = failures;
        const auto speedKey = [&](const char *leaf) {
            return "speed." + id + "." + leaf;
        };

        const double base_rps =
            lookup(baseline, speedKey("requests_per_second"));
        const double fresh_rps =
            lookupFresh(speedKey("requests_per_second"));
        if (base_rps > 0.0 && fresh_rps >= 0.0) {
            ++speed_checks;
            const double floor = base_rps * (1.0 - options.tolerance);
            std::printf("%-24s req/s %12.1f  baseline %12.1f  "
                        "floor %12.1f  %s\n",
                        id.c_str(), fresh_rps, base_rps, floor,
                        fresh_rps >= floor ? "ok" : "FAIL");
            if (fresh_rps < floor) {
                failure("point '" + id + "' requests_per_second "
                        + formatNumber(fresh_rps) + " below floor "
                        + formatNumber(floor) + " (baseline "
                        + formatNumber(base_rps) + ", tolerance "
                        + formatNumber(options.tolerance) + ")");
            }
        }

        const double base_allocs =
            lookup(baseline, speedKey("heap_allocs_per_request"));
        const double fresh_allocs =
            lookupFresh(speedKey("heap_allocs_per_request"));
        if (base_allocs >= 0.0 && fresh_allocs >= 0.0) {
            ++speed_checks;
            const double ceiling =
                base_allocs * (1.0 + options.tolerance)
                + options.allocSlack;
            if (fresh_allocs > ceiling) {
                failure("point '" + id + "' heap_allocs_per_request "
                        + formatNumber(fresh_allocs) + " above ceiling "
                        + formatNumber(ceiling) + " (baseline "
                        + formatNumber(base_allocs) + ")");
            }
        }

        const double base_rss = lookup(baseline, speedKey("peak_rss_mb"));
        const double fresh_rss = lookupFresh(speedKey("peak_rss_mb"));
        if (base_rss > 0.0 && fresh_rss >= 0.0) {
            ++speed_checks;
            const double ceiling = base_rss * (1.0 + options.tolerance);
            if (fresh_rss > ceiling) {
                failure("point '" + id + "' peak_rss_mb "
                        + formatNumber(fresh_rss) + " above ceiling "
                        + formatNumber(ceiling) + " (baseline "
                        + formatNumber(base_rss) + ")");
            }
        }

        MarkdownRow row;
        row.id = id;
        row.freshRps = fresh_rps;
        row.baseRps = base_rps;
        row.freshAllocs = fresh_allocs;
        row.freshRss = fresh_rss;
        row.ok = failures == failures_before;
        markdown_rows.push_back(row);
    }
    if (speed_checks == 0) {
        std::fprintf(stderr,
                     "perf_compare: no overlapping speed.* keys "
                     "between the documents\n");
        return 2;
    }

    if (!options.markdownPath.empty()
        && !writeMarkdown(options.markdownPath, markdown_rows,
                          options.tolerance, failures)) {
        std::fprintf(stderr, "perf_compare: cannot write '%s'\n",
                     options.markdownPath.c_str());
        return 2;
    }

    if (failures != 0) {
        std::fprintf(stderr, "perf_compare: %d regression%s\n", failures,
                     failures == 1 ? "" : "s");
        return 1;
    }
    std::printf("perf_compare: ok (%zu speed checks, tolerance %g)\n",
                speed_checks, options.tolerance);
    return 0;
}
