/**
 * @file
 * Shared helpers for the figure-regeneration benches: consistent
 * headers, table formatting, the paper-reference annotations that
 * EXPERIMENTS.md cross-checks, and the Harness that runs every bench's
 * design points through the sweep runner so each binary emits the same
 * machine-readable JSON (--json) and sanity-gated exit status.
 */

#ifndef PALERMO_BENCH_BENCH_UTIL_HH
#define PALERMO_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "sim/metrics_json.hh"
#include "sim/protocol_registry.hh"
#include "sim/run_cli.hh"
#include "sim/sweep.hh"
#include "sim/system_config.hh"
#include "trace/trace_gen.hh"

namespace palermo {
namespace bench {

/** Print the standard bench banner with the live configuration. */
inline void
banner(const char *figure, const char *claim, const SystemConfig &config)
{
    std::printf("================================================="
                "=============================\n");
    std::printf("%s\n", figure);
    std::printf("paper: %s\n", claim);
    std::printf("-------------------------------------------------"
                "-----------------------------\n");
    std::printf("%s", config.describe().c_str());
    std::printf("-------------------------------------------------"
                "-----------------------------\n");
}

/** Print one row of right-aligned numeric cells after a label. */
inline void
row(const std::string &label, const std::vector<double> &cells,
    const char *fmt = "%10.2f")
{
    std::printf("%-14s", label.c_str());
    for (double cell : cells)
        std::printf(fmt, cell);
    std::printf("\n");
}

/** Print a header row of right-aligned column names. */
inline void
head(const std::string &label, const std::vector<std::string> &names)
{
    std::printf("%-14s", label.c_str());
    for (const auto &name : names)
        std::printf("%10s", name.c_str());
    std::printf("\n");
}

/** The four workloads the paper's deep-dive figures use. */
inline std::vector<Workload>
deepDiveWorkloads()
{
    return {Workload::Mcf, Workload::PageRank, Workload::Llm,
            Workload::Redis};
}

/** Options every bench binary accepts. */
struct BenchOptions
{
    std::string jsonPath; ///< --json PATH ("-" = stdout).
    unsigned jobs = 1;    ///< --jobs N sweep-runner threads.
};

/**
 * Parse bench argv: --json PATH, --jobs N, --help. Unknown flags are
 * fatal so CI catches typos. Exits directly on --help.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions options;
    ArgCursor cursor(argc - 1, argv + 1);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        const auto value = [&]() -> std::string {
            std::string text;
            if (!cursor.value(&text))
                fatal("flag '%s' needs a value", name.c_str());
            return text;
        };
        if (name == "--help" || name == "-h") {
            std::printf("usage: %s [--json PATH] [--jobs N]\n",
                        argv[0]);
            std::printf("  --json PATH  write palermo-metrics-v1 JSON "
                        "('-' = stdout)\n");
            std::printf("  --jobs N     run design points on N threads "
                        "(default 1)\n");
            std::exit(0);
        } else if (name == "--json") {
            options.jsonPath = value();
        } else if (name == "--jobs" || name == "-j") {
            const std::string text = value();
            std::uint64_t jobs = 0;
            if (!parseUnsigned(text, &jobs) || jobs == 0)
                fatal("--jobs needs a positive integer, got '%s'",
                      text.c_str());
            options.jobs = static_cast<unsigned>(jobs);
        } else {
            fatal("unknown flag '%s' (try --help)", name.c_str());
        }
    }
    return options;
}

/**
 * Destination for a bench's --json document. For a file path this is
 * a plain write at the end of the run; for "-" the constructor
 * duplicates stdout for the JSON and redirects the process's table
 * output to stderr, so stdout carries pure JSON (pipeline-safe, and
 * consistent with the micro benches' --benchmark_format=json).
 */
class JsonSink
{
  public:
    explicit JsonSink(const std::string &path) : path_(path)
    {
        if (path_ != "-")
            return;
        std::fflush(stdout);
        fd_ = ::dup(::fileno(stdout));
        if (fd_ < 0 || ::dup2(::fileno(stderr), ::fileno(stdout)) < 0)
            fatal("cannot redirect tables for --json -");
    }

    bool enabled() const { return !path_.empty(); }

    /** Write the finished document; returns false on I/O failure. */
    bool
    write(const std::string &doc)
    {
        if (fd_ < 0)
            return MetricsJson::writeFile(path_, doc);
        std::fflush(stdout);
        std::size_t off = 0;
        bool ok = true;
        while (off < doc.size()) {
            const ssize_t n =
                ::write(fd_, doc.data() + off, doc.size() - off);
            if (n <= 0) {
                ok = false;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
        ::close(fd_);
        fd_ = -1;
        return ok;
    }

  private:
    std::string path_;
    int fd_ = -1; ///< Duplicated stdout when path is "-".
};

/**
 * The bench-side experiment harness. Benches queue design points with
 * stable ids, run() them in batches through the SweepRunner (batching
 * lets later points depend on earlier results), look results up by id
 * to print their tables, and finish() to emit JSON plus the sanity-
 * gated exit code. All measurement goes through this class — no bench
 * calls runExperiment directly — so every binary shares --json output
 * and CI gating for free.
 */
class Harness
{
  public:
    Harness(int argc, char **argv, const char *tool)
        : tool_(tool), options_(parseBenchArgs(argc, argv)),
          sink_(options_.jsonPath)
    {
    }

    /**
     * Queue a design point under a unique id for later lookup.
     * @param allow_stash_overflow Exempt from the overflow sanity gate
     *        (for experiments that force stash pressure on purpose).
     */
    void
    add(ProtocolKind kind, Workload workload, const SystemConfig &config,
        const std::string &id, bool allow_stash_overflow = false)
    {
        palermo_assert(index_.find(id) == index_.end(),
                       "duplicate design-point id");
        for (const DesignPoint &queued : pending_)
            palermo_assert(queued.id != id, "duplicate queued id");
        DesignPoint point;
        point.index = records_.size() + pending_.size();
        point.kind = kind;
        point.workload = workload;
        // Record what will actually run (the protocol's prefetch
        // rule applied), not the caller's copy.
        point.config = normalizedProtocolConfig(kind, config);
        point.id = id;
        point.allowStashOverflow = allow_stash_overflow;
        pending_.push_back(std::move(point));
    }

    /** Run all queued points; records accumulate across batches. */
    void
    run()
    {
        const std::vector<RunRecord> batch =
            SweepRunner(options_.jobs).run(pending_);
        pending_.clear();
        for (const RunRecord &record : batch) {
            index_[record.point.id] = records_.size();
            records_.push_back(record);
        }
    }

    /** Queue-and-run shorthand for a single dependent point. */
    const RunMetrics &
    runOne(ProtocolKind kind, Workload workload,
           const SystemConfig &config, const std::string &id)
    {
        add(kind, workload, config, id);
        run();
        return metrics(id);
    }

    /** Metrics of a completed point (fatal on unknown ids). */
    const RunMetrics &
    metrics(const std::string &id) const
    {
        const auto it = index_.find(id);
        if (it == index_.end())
            fatal("no design point '%s' has run", id.c_str());
        return records_[it->second].metrics;
    }

    /** Full record of a completed point. */
    const RunRecord &
    record(const std::string &id) const
    {
        const auto it = index_.find(id);
        if (it == index_.end())
            fatal("no design point '%s' has run", id.c_str());
        return records_[it->second];
    }

    const std::vector<RunRecord> &records() const { return records_; }

    /** Register a cross-point scalar for the JSON "derived" map. */
    void
    derived(const std::string &name, double value)
    {
        derived_[name] = value;
    }

    /**
     * Emit JSON if requested and run the sanity gate. Returns the
     * process exit code: 0 clean, 1 on stash overflow / degenerate
     * measurements / JSON write failure.
     */
    int
    finish()
    {
        bool ok = true;
        if (sink_.enabled())
            ok = sink_.write(
                MetricsJson::document(tool_, records_, derived_));
        std::vector<std::string> problems;
        if (!sanityCheck(records_, &problems)) {
            ok = false;
            for (const std::string &problem : problems)
                std::fprintf(stderr, "%s: SANITY: %s\n", tool_.c_str(),
                             problem.c_str());
        }
        return ok ? 0 : 1;
    }

  private:
    std::string tool_;
    BenchOptions options_;
    JsonSink sink_;
    std::vector<DesignPoint> pending_;
    std::vector<RunRecord> records_;
    std::map<std::string, std::size_t> index_;
    std::map<std::string, double> derived_;
};

} // namespace bench
} // namespace palermo

#endif // PALERMO_BENCH_BENCH_UTIL_HH
