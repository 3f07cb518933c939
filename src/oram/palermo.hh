/**
 * @file
 * PalermoOram: the Palermo protocol (paper Algorithm 2).
 *
 * Functional changes over baseline RingORAM:
 *  - EarlyReshufflePreCheck: buckets at S-1 touches reset *before*
 *    ReadPath and are bypassed in it, hoisting the tree's write phase so
 *    the next request sees a "good to read" tree as early as possible.
 *  - Pending blocks (already in the stash because an overlapped request
 *    pulled them) read a uniformly random path instead of their mapped
 *    leaf, keeping the DRAM trace independent under concurrency.
 *  - EvictPath stays serialized after ReadPath, preserving the RingORAM
 *    stash bound regardless of concurrency order.
 *
 * Unlike the serial protocols, plans are generated per hierarchy level:
 * the PE-mesh timing controller invokes beginLevel() at the instant a
 * PE's sibling dependency clears, so per-tree functional state changes
 * occur in commit (CommitHead) order while ReadPaths overlap freely.
 */

#ifndef PALERMO_ORAM_PALERMO_HH
#define PALERMO_ORAM_PALERMO_HH

#include <array>

#include "oram/hierarchy.hh"
#include "oram/level_engine.hh"

namespace palermo {

/** Palermo protocol statistics. */
struct PalermoStats
{
    std::uint64_t requests = 0;
    std::uint64_t pendingServes = 0; ///< Random-leaf pending accesses.
    std::uint64_t llcHits = 0;       ///< Prefetch-filtered misses.
};

/** The Palermo protocol state (shared by HW and SW controllers). */
class PalermoOram
{
  public:
    explicit PalermoOram(const ProtocolConfig &config);

    /**
     * Prefetch admission filter (Palermo+Prefetch): true if the miss is
     * absorbed by an LLC-resident prefetched line and needs no ORAM
     * request.
     */
    bool filterHit(BlockId pa, bool write, std::uint64_t value);

    /** Per-level block ids for a data-space address. */
    std::array<BlockId, kHierLevels> decompose(BlockId pa) const;

    /**
     * Execute one level's critical section: leaf resolution (uniform
     * random if the block is pending per Algorithm 2 line 5), remap,
     * pre-check reshuffles — then the full functional access. Must be
     * called in per-tree commit order.
     */
    LevelPlan beginLevel(unsigned level, BlockId block);

    /** beginLevel() into a recycled plan (resets it first). */
    void beginLevelInto(unsigned level, BlockId block, LevelPlan *plan);

    /**
     * Complete the data access: apply the write payload / fetch the read
     * value, and mark prefetched lines LLC-resident.
     * @param pa Original protected-space line.
     * @param write Store miss?
     * @param value Store payload.
     * @return The block's (post-update) payload.
     */
    std::uint64_t finishData(BlockId pa, bool write, std::uint64_t value);

    Stash &stashOf(unsigned level) { return hier_.stash(level); }
    const Hierarchy<RingEngine> &hierarchy() const { return hier_; }
    const ProtocolConfig &config() const { return hier_.config(); }
    const PalermoStats &palermoStats() const { return stats_; }

    bool
    checkBlockInvariant(BlockId pa) const
    {
        return hier_.dataInvariantHolds(decompose(pa)[kLevelData]);
    }

  private:
    Hierarchy<RingEngine> hier_;
    PrefetchFilter filter_;
    PalermoStats stats_;
};

} // namespace palermo

#endif // PALERMO_ORAM_PALERMO_HH
