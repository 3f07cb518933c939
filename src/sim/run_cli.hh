/**
 * @file
 * Option parsing for the palermo_run and palermo_replay CLIs (and
 * their tests).
 *
 * Kept in the library (not tools/) so flag handling is unit-testable
 * and so bench binaries share the exact same --json/--jobs semantics.
 * Parsing never exits: errors come back as strings for the caller to
 * report, which also lets tests probe malformed invocations.
 */

#ifndef PALERMO_SIM_RUN_CLI_HH
#define PALERMO_SIM_RUN_CLI_HH

#include <cstdint>
#include <string>

#include "sim/sweep.hh"
#include "sim/system_config.hh"
#include "trace/trace_gen.hh"

namespace palermo {

/**
 * Shared argv walker for the tool parsers: accepts "--flag value" and
 * "--flag=value" forms, one flag per advance() step. Exposed here so
 * bench harnesses parse flags the same way and tests can probe edge
 * cases (missing values, '=' with empty text, exhausted argv).
 */
class ArgCursor
{
  public:
    ArgCursor(int argc, const char *const *argv)
        : argc_(argc), argv_(argv)
    {
    }

    /** Move to the next argument; false when argv is exhausted. */
    bool
    advance()
    {
        if (i_ + 1 >= argc_)
            return false;
        arg_ = argv_[++i_];
        return true;
    }

    /** Flag name of the current argument (text before any '='). */
    std::string
    name() const
    {
        const std::size_t eq = arg_.find('=');
        return eq == std::string::npos ? arg_ : arg_.substr(0, eq);
    }

    /**
     * Value of the current flag: the text after '=', or the next
     * argument (consumed). False when neither exists.
     */
    bool
    value(std::string *out)
    {
        const std::size_t eq = arg_.find('=');
        if (eq != std::string::npos) {
            *out = arg_.substr(eq + 1);
            return true;
        }
        if (i_ + 1 >= argc_)
            return false;
        *out = argv_[++i_];
        return true;
    }

  private:
    int argc_;
    const char *const *argv_;
    int i_ = -1;
    std::string arg_;
};

/** Everything palermo_run accepts on its command line. */
struct RunOptions
{
    ProtocolKind protocol = ProtocolKind::Palermo;
    Workload workload = Workload::Random;

    bool paperGeometry = false;    ///< --paper: Table III 16 GB space.
    std::uint64_t blocks = 0;      ///< --blocks (0 = keep default).
    std::uint64_t reqs = 0;        ///< --reqs (0 = keep default).
    bool seedSet = false;
    std::uint64_t seed = 0;        ///< --seed (when seedSet).
    bool constantRate = false;     ///< --constant-rate (security mode).

    std::string sweep;             ///< Joined --sweep clauses.
    std::string jsonPath;          ///< --json PATH ("-" = stdout).
    unsigned jobs = 1;             ///< --jobs N worker threads.
    bool listPoints = false;       ///< --list: print grid, don't run.
    bool listProtocols = false;    ///< --list-protocols (the table).
    bool listWorkloads = false;    ///< --list-workloads.
    bool help = false;             ///< --help / -h.

    /** Resolve the base SystemConfig these options describe. */
    SystemConfig baseConfig() const;

    /** Expand the (possibly empty) sweep into design points. */
    std::vector<DesignPoint> expandPoints(std::string *error) const;
};

/**
 * Parse argv (excluding argv[0]). Flags take "--flag value" or
 * "--flag=value" form. Returns false and fills *error on unknown
 * flags, missing arguments, or unparseable values.
 */
bool parseRunArgs(int argc, const char *const *argv, RunOptions *options,
                  std::string *error);

/** Usage text for --help and parse errors. */
std::string runUsage();

/** Everything palermo_replay accepts on its command line. */
struct ReplayOptions
{
    std::string tracePath;         ///< --trace FILE (required to run).
    ProtocolKind protocol = ProtocolKind::Palermo;

    bool paperGeometry = false;    ///< --paper: Table III 16 GB space.
    std::uint64_t blocks = 0;      ///< --blocks (0 = keep default).
    bool seedSet = false;
    std::uint64_t seed = 0;        ///< --seed (when seedSet).

    std::uint64_t depth = 8;       ///< --depth: submit-queue bound.
    std::uint64_t progress = 0;    ///< --progress N (0 = off).
    std::string jsonPath;          ///< --json PATH ("-" = stdout).
    bool listProtocols = false;    ///< --list-protocols (the table).
    bool help = false;             ///< --help / -h.

    /**
     * Resolve the base SystemConfig these options describe. The run
     * shape (totalRequests) still comes from the trace length.
     */
    SystemConfig baseConfig() const;
};

/** Parse palermo_replay argv (excluding argv[0]); see parseRunArgs. */
bool parseReplayArgs(int argc, const char *const *argv,
                     ReplayOptions *options, std::string *error);

/** Usage text for palermo_replay. */
std::string replayUsage();

/**
 * One line per protocol, in Fig. 10 bar order: short token, display
 * name, capability flags, accepted aliases. What
 * `palermo_run --list-protocols` prints.
 */
std::string protocolListing();

/** One line per workload, in Fig. 10 order (--list-workloads). */
std::string workloadListing();

} // namespace palermo

#endif // PALERMO_SIM_RUN_CLI_HH
