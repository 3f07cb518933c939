/**
 * @file
 * LLC-miss trace generators for the paper's Table II workload mix.
 *
 * The paper drives its simulator with Sniper traces of SPEC17, GAP graph
 * analytics, DLRM, GPT-2, and Redis over real datasets. Those datasets
 * and the Sniper frontend are substituted here (DESIGN.md §3) with
 * synthetic generators that reproduce each workload's *locality class* —
 * the only property the ORAM experiments are sensitive to, since the
 * protocol converts every miss into uniformly random tree paths.
 *
 * Every generator is a deterministic function of its seed and emits
 * (line, is_write) pairs over a protected space of the requested size.
 */

#ifndef PALERMO_TRACE_TRACE_GEN_HH
#define PALERMO_TRACE_TRACE_GEN_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace palermo {

/** One LLC miss. */
struct TraceRecord
{
    BlockId line;  ///< 64B line index within the protected space.
    bool write;
};

/** Abstract LLC-miss stream. */
class TraceGen
{
  public:
    virtual ~TraceGen() = default;

    /** Produce the next miss. */
    virtual TraceRecord next() = 0;

    /** Protected-space size this trace addresses. */
    std::uint64_t numLines() const { return numLines_; }

  protected:
    TraceGen(std::uint64_t num_lines, std::uint64_t seed)
        : numLines_(num_lines), rng_(seed)
    {
    }

    std::uint64_t numLines_;
    Rng rng_;
};

/** Workloads of Table II. */
enum class Workload
{
    Mcf,     ///< SPEC17 route planning: pointer chasing, mixed locality.
    Lbm,     ///< SPEC17 fluid dynamics: multi-stream stencil.
    PageRank, ///< Graph: power-law vertex gather.
    Motif,   ///< Graph mining: localized neighborhood expansion.
    Dlrm1,   ///< DLRM memory-bound: many single-line Zipf gathers.
    Dlrm2,   ///< DLRM balanced: fewer, wider lookups with reuse.
    Llm,     ///< GPT-2 token feature table: Zipf rows of embeddings.
    Redis,   ///< KV store: Zipf keys, hashed (no spatial) layout.
    Stream,  ///< stm: perfectly sequential lines.
    Random,  ///< rand: uniform random lines.
};

/** All workloads in the paper's Fig. 10 order. */
const std::vector<Workload> &allWorkloads();

/** Short name used in figures ("mcf", "pr", "llm", ...). */
const char *workloadName(Workload workload);

/** Parse a short name; fatal on unknown names. */
Workload workloadFromName(const std::string &name);

/**
 * Non-fatal parse of a short name or alias ("stm", "rand", "graph").
 * Returns false on unknown names, leaving *workload untouched.
 */
bool tryWorkloadFromName(const std::string &name, Workload *workload);

/**
 * Construct a generator.
 * @param workload Which Table II workload to model.
 * @param num_lines Protected-space size in 64B lines.
 * @param seed Determinism seed.
 */
std::unique_ptr<TraceGen> makeTrace(Workload workload,
                                    std::uint64_t num_lines,
                                    std::uint64_t seed);

} // namespace palermo

#endif // PALERMO_TRACE_TRACE_GEN_HH
