/**
 * @file
 * Synthetic Table II workload generators reproducing each trace's
 * locality class (Zipf gathers, stencils, streams, pointer chases).
 */

#include "trace/trace_gen.hh"

#include <algorithm>
#include <deque>

#include "common/log.hh"
#include "crypto/prf.hh"

namespace palermo {

namespace {

/**
 * mcf: route-planning pointer chasing. The network simplex walks arc
 * lists: short sequential bursts through node/arc records punctuated by
 * data-dependent jumps, with a modest hot set revisited often.
 */
class McfTrace : public TraceGen
{
  public:
    McfTrace(std::uint64_t n, std::uint64_t seed)
        : TraceGen(n, seed), cursor_(rng_.range(n))
    {
    }

    TraceRecord next() override
    {
        const double roll = rng_.uniform();
        if (roll < 0.35 && burst_ > 0) {
            // Walk the current arc list sequentially.
            --burst_;
            cursor_ = (cursor_ + 1) % numLines_;
        } else if (roll < 0.55 && !recent_.empty()) {
            // Revisit a recently touched node record.
            cursor_ = recent_[rng_.range(recent_.size())];
        } else {
            // Data-dependent jump to another node's arcs.
            cursor_ = mix64(cursor_ ^ rng_.next()) % numLines_;
            burst_ = 2 + rng_.range(6);
        }
        recent_.push_back(cursor_);
        if (recent_.size() > 64)
            recent_.pop_front();
        return {cursor_, rng_.chance(0.25)};
    }

  private:
    BlockId cursor_;
    unsigned burst_ = 4;
    std::deque<BlockId> recent_;
};

/**
 * lbm: lattice-Boltzmann stencil. Three large arrays streamed with
 * fixed strides per cell update; writes stream into the destination
 * grid.
 */
class LbmTrace : public TraceGen
{
  public:
    LbmTrace(std::uint64_t n, std::uint64_t seed)
        : TraceGen(n, seed), region_(n / 3)
    {
    }

    TraceRecord next() override
    {
        const unsigned which = phase_ % 3;
        ++phase_;
        if (which == 0) {
            // Source distribution read.
            return {cell_ % region_, false};
        }
        if (which == 1) {
            // Neighbor read at a fixed stencil stride.
            return {(region_ + (cell_ + stride_) % region_), false};
        }
        // Destination write, then advance the cell.
        const BlockId out = 2 * region_ + (cell_ % region_);
        ++cell_;
        return {out, true};
    }

  private:
    std::uint64_t region_;
    std::uint64_t cell_ = 0;
    std::uint64_t stride_ = 33;
    std::uint64_t phase_ = 0;
};

/**
 * pr: PageRank over a power-law graph in CSR form. The offset/score
 * arrays stream sequentially while neighbor gathers hit Zipf-popular
 * vertices.
 */
class PageRankTrace : public TraceGen
{
  public:
    PageRankTrace(std::uint64_t n, std::uint64_t seed)
        : TraceGen(n, seed),
          vertices_(std::max<std::uint64_t>(n / 2, 1)),
          zipf_(vertices_, 0.8, mix64(seed ^ 0x7072ull))
    {
    }

    TraceRecord next() override
    {
        if (neighbors_ == 0) {
            // Next vertex: sequential CSR offset + score read.
            vertex_ = (vertex_ + 1) % vertices_;
            // Power-law out-degree: most vertices small, some huge.
            const double u = rng_.uniform();
            neighbors_ = static_cast<unsigned>(1.0 / (0.05 + u * u * 4.0));
            neighbors_ = std::clamp(neighbors_, 1u, 64u);
            return {vertex_, false};
        }
        --neighbors_;
        // Gather a Zipf-popular destination vertex's score; write back
        // the accumulating rank occasionally.
        const BlockId dst = vertices_ + zipf_.sample() % (numLines_
            - vertices_);
        return {dst, rng_.chance(0.1)};
    }

  private:
    std::uint64_t vertices_;
    ZipfSampler zipf_;
    BlockId vertex_ = 0;
    unsigned neighbors_ = 0;
};

/**
 * motif: temporal subgraph isomorphism. Expands candidate subgraphs
 * around seed vertices: bursts of reads clustered in a neighborhood,
 * strong short-term reuse, seeds chosen with skew.
 */
class MotifTrace : public TraceGen
{
  public:
    MotifTrace(std::uint64_t n, std::uint64_t seed)
        : TraceGen(n, seed),
          zipf_(std::max<std::uint64_t>(n / 256, 1), 0.9,
                mix64(seed ^ 0x6d6full))
    {
    }

    TraceRecord next() override
    {
        if (remaining_ == 0) {
            seed_ = zipf_.sample() * 256 % numLines_;
            remaining_ = 8 + rng_.range(48);
        }
        --remaining_;
        // Neighborhood reads scatter within a region around the seed.
        const BlockId offset = rng_.range(192);
        return {(seed_ + offset) % numLines_, false};
    }

  private:
    ZipfSampler zipf_;
    BlockId seed_ = 0;
    unsigned remaining_ = 0;
};

/**
 * rm1 (DLRM MemBound): sparse-length-sum over many embedding tables;
 * each query gathers one Zipf-popular single-line row per table — pure
 * pointer-chasing bandwidth with little spatial locality.
 */
class Dlrm1Trace : public TraceGen
{
  public:
    Dlrm1Trace(std::uint64_t n, std::uint64_t seed)
        : TraceGen(n, seed), tables_(26),
          rowsPerTable_(std::max<std::uint64_t>(n / tables_, 1)),
          zipf_(rowsPerTable_, 1.05, mix64(seed ^ 0x726dull))
    {
    }

    TraceRecord next() override
    {
        const unsigned table = phase_ % tables_;
        ++phase_;
        const BlockId row = zipf_.sample();
        return {(table * rowsPerTable_ + row) % numLines_, false};
    }

  private:
    unsigned tables_;
    std::uint64_t rowsPerTable_;
    ZipfSampler zipf_;
    std::uint64_t phase_ = 0;
};

/**
 * rm2 (DLRM Balanced): fewer lookups per query, multi-line embedding
 * rows read sequentially, higher reuse of hot rows.
 */
class Dlrm2Trace : public TraceGen
{
  public:
    Dlrm2Trace(std::uint64_t n, std::uint64_t seed)
        : TraceGen(n, seed), rowLines_(4),
          rows_(std::max<std::uint64_t>(n / rowLines_, 1)),
          zipf_(rows_, 1.2, mix64(seed ^ 0x3272ull))
    {
    }

    TraceRecord next() override
    {
        if (lineInRow_ == 0)
            row_ = zipf_.sample();
        const BlockId line = (row_ * rowLines_ + lineInRow_) % numLines_;
        lineInRow_ = (lineInRow_ + 1) % rowLines_;
        return {line, false};
    }

  private:
    unsigned rowLines_;
    std::uint64_t rows_;
    ZipfSampler zipf_;
    std::uint64_t row_ = 0;
    unsigned lineInRow_ = 0;
};

/**
 * llm: GPT-2 token feature table during decode. Each step looks up one
 * Zipf-distributed token id and streams its multi-line embedding row —
 * the access pattern whose leakage the paper's introduction motivates.
 */
class LlmTrace : public TraceGen
{
  public:
    LlmTrace(std::uint64_t n, std::uint64_t seed)
        : TraceGen(n, seed), rowLines_(8),
          vocab_(std::max<std::uint64_t>(n / rowLines_, 1)),
          zipf_(vocab_, 1.0, mix64(seed ^ 0x6c6cull))
    {
    }

    TraceRecord next() override
    {
        if (lineInRow_ == 0)
            token_ = zipf_.sample();
        const BlockId line =
            (token_ * rowLines_ + lineInRow_) % numLines_;
        lineInRow_ = (lineInRow_ + 1) % rowLines_;
        return {line, false};
    }

  private:
    unsigned rowLines_;
    std::uint64_t vocab_;
    ZipfSampler zipf_;
    std::uint64_t token_ = 0;
    unsigned lineInRow_ = 0;
};

/**
 * redis: KV GET/SET over hashed keys. Zipf-popular keys but hashed
 * placement, so temporal skew with no spatial locality — the worst case
 * for prefetch-based ORAM optimizations.
 */
class RedisTrace : public TraceGen
{
  public:
    RedisTrace(std::uint64_t n, std::uint64_t seed)
        : TraceGen(n, seed),
          keys_(std::max<std::uint64_t>(n / 2, 1)),
          zipf_(keys_, 0.99, mix64(seed ^ 0x7264ull)),
          prf_(mix64(seed ^ 0x68617368ull))
    {
    }

    TraceRecord next() override
    {
        const std::uint64_t key = zipf_.sample();
        const BlockId line = prf_.evalMod(key, numLines_);
        return {line, rng_.chance(0.3)};
    }

  private:
    std::uint64_t keys_;
    ZipfSampler zipf_;
    Prf prf_;
};

/** stm: perfectly sequential lines (the paper's prefetch stress test). */
class StreamTrace : public TraceGen
{
  public:
    StreamTrace(std::uint64_t n, std::uint64_t seed) : TraceGen(n, seed) {}

    TraceRecord next() override
    {
        const BlockId line = cursor_;
        cursor_ = (cursor_ + 1) % numLines_;
        return {line, false};
    }

  private:
    BlockId cursor_ = 0;
};

/** rand: uniform random lines (zero locality of any kind). */
class RandomTrace : public TraceGen
{
  public:
    RandomTrace(std::uint64_t n, std::uint64_t seed) : TraceGen(n, seed) {}

    TraceRecord next() override
    {
        return {rng_.range(numLines_), rng_.chance(0.2)};
    }
};

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> workloads = {
        Workload::Mcf, Workload::Lbm, Workload::PageRank, Workload::Motif,
        Workload::Dlrm1, Workload::Dlrm2, Workload::Llm, Workload::Redis,
        Workload::Stream, Workload::Random,
    };
    return workloads;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::Mcf: return "mcf";
      case Workload::Lbm: return "lbm";
      case Workload::PageRank: return "pr";
      case Workload::Motif: return "motif";
      case Workload::Dlrm1: return "rm1";
      case Workload::Dlrm2: return "rm2";
      case Workload::Llm: return "llm";
      case Workload::Redis: return "redis";
      case Workload::Stream: return "stream";
      case Workload::Random: return "random";
    }
    return "?";
}

bool
tryWorkloadFromName(const std::string &name, Workload *workload)
{
    for (Workload w : allWorkloads()) {
        if (name == workloadName(w)) {
            *workload = w;
            return true;
        }
    }
    if (name == "stm") {
        *workload = Workload::Stream;
    } else if (name == "rand") {
        *workload = Workload::Random;
    } else if (name == "graph") {
        // Graph-analytics locality class (power-law vertex gather).
        *workload = Workload::PageRank;
    } else {
        return false;
    }
    return true;
}

Workload
workloadFromName(const std::string &name)
{
    Workload workload = Workload::Random;
    if (!tryWorkloadFromName(name, &workload))
        fatal("unknown workload '%s'", name.c_str());
    return workload;
}

std::unique_ptr<TraceGen>
makeTrace(Workload workload, std::uint64_t num_lines, std::uint64_t seed)
{
    palermo_assert(num_lines > 0);
    switch (workload) {
      case Workload::Mcf:
        return std::make_unique<McfTrace>(num_lines, seed);
      case Workload::Lbm:
        return std::make_unique<LbmTrace>(num_lines, seed);
      case Workload::PageRank:
        return std::make_unique<PageRankTrace>(num_lines, seed);
      case Workload::Motif:
        return std::make_unique<MotifTrace>(num_lines, seed);
      case Workload::Dlrm1:
        return std::make_unique<Dlrm1Trace>(num_lines, seed);
      case Workload::Dlrm2:
        return std::make_unique<Dlrm2Trace>(num_lines, seed);
      case Workload::Llm:
        return std::make_unique<LlmTrace>(num_lines, seed);
      case Workload::Redis:
        return std::make_unique<RedisTrace>(num_lines, seed);
      case Workload::Stream:
        return std::make_unique<StreamTrace>(num_lines, seed);
      case Workload::Random:
        return std::make_unique<RandomTrace>(num_lines, seed);
    }
    panic("unreachable workload");
}

} // namespace palermo
