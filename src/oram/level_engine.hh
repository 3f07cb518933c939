/**
 * @file
 * RingEngine: the RingORAM protocol machinery for a single ORAM tree.
 *
 * One engine owns a tree (buckets + metadata), a stash, the eviction
 * ring counter, and the per-tree access counter. It executes accesses
 * functionally (blocks move between buckets and the stash) and emits
 * LevelPlans describing the DRAM operations each protocol phase issues.
 *
 * Two reshuffle modes implement the paper's protocols:
 *  - Post  (Algorithm 1, baseline RingORAM): EarlyReshuffle runs after
 *    ReadPath and resets buckets whose access count reached S.
 *  - Pre   (Algorithm 2, Palermo): EarlyReshufflePreCheck runs before
 *    ReadPath, resets buckets at S-1 touches, and marks them bypassed in
 *    the subsequent ReadPath — the reordering that lets the next request
 *    observe a "good to read" tree as early as possible.
 */

#ifndef PALERMO_ORAM_LEVEL_ENGINE_HH
#define PALERMO_ORAM_LEVEL_ENGINE_HH

#include <cstdint>
#include <memory>

#include "common/rng.hh"
#include "common/types.hh"
#include "oram/layout.hh"
#include "oram/plan.hh"
#include "oram/posmap.hh"
#include "oram/stash.hh"
#include "oram/tree_store.hh"

namespace palermo {

/** When EarlyReshuffle runs relative to ReadPath. */
enum class ReshuffleMode
{
    Post, ///< Baseline RingORAM: reset at S touches, after ReadPath.
    Pre,  ///< Palermo: reset at S-1 touches, before ReadPath, bypass.
};

/** Per-engine cumulative statistics. */
struct EngineStats
{
    std::uint64_t accesses = 0;
    std::uint64_t earlyReshuffles = 0;
    std::uint64_t evictions = 0;
    std::uint64_t freshBlocks = 0;
    std::uint64_t stashServes = 0;
};

/** RingORAM protocol engine for one tree. */
class RingEngine
{
  public:
    /**
     * @param params Tree geometry and (Z, S, A).
     * @param base DRAM base address of this tree's region.
     * @param mode Reshuffle ordering (baseline vs Palermo).
     * @param cached_levels Tree levels [0, cached_levels) are served by
     *        the on-chip tree-top cache and emit no DRAM operations.
     * @param seed Engine RNG seed (dummy-slot selection).
     * @param stash_capacity On-chip stash bound for watermark checks.
     */
    RingEngine(const OramParams &params, Addr base, ReshuffleMode mode,
               unsigned cached_levels, std::uint64_t seed,
               std::size_t stash_capacity = 256);

    /**
     * Execute one RingORAM access functionally and emit its plan into
     * a recycled plan (reset first).
     *
     * The caller (hierarchy) resolves the leaf from position-map content
     * and passes both the leaf to read and the fresh remap target. If
     * the block is pending in the stash the caller passes a uniformly
     * random leaf per Palermo Algorithm 2 line 5.
     *
     * @param block Block id within this tree's space.
     * @param leaf Path to read.
     * @param new_leaf Fresh leaf the block remaps to.
     * @param plan Receives the access's phases.
     */
    void accessInto(BlockId block, Leaf leaf, Leaf new_leaf,
                    LevelPlan *plan);

    /** Read a stashed block's payload (valid right after accessInto()). */
    std::uint64_t payloadOf(BlockId block) const;

    /** Overwrite a stashed block's payload (write requests). */
    void setPayload(BlockId block, std::uint64_t value);

    /** True if the block currently sits in the stash (pending). */
    bool inStash(BlockId block) const { return stash_.contains(block); }

    Stash &stash() { return stash_; }
    const Stash &stash() const { return stash_; }
    TreeStore &tree() { return tree_; }
    const TreeStore &tree() const { return tree_; }
    const TreeLayout &layout() const { return layout_; }
    const OramParams &params() const { return params_; }
    unsigned cachedLevels() const { return cachedLevels_; }
    const EngineStats &stats() const { return stats_; }

    /** RingORAM residence is the path alone (no PageORAM siblings). */
    bool siblingMode() const { return false; }

    /**
     * Verify the RingORAM invariant for a block: it lies on the path
     * from its mapped leaf to the root, or in the stash.
     * @param block Block to locate.
     * @param leaf The block's authoritative mapped leaf.
     */
    bool satisfiesInvariant(BlockId block, Leaf leaf) const;

  private:
    /** Functionally reset one bucket and append its plan. */
    void resetBucket(NodeId node, std::vector<MemOp> &read_ops,
                     std::vector<MemOp> &write_ops);

    /** Append ops for one slot access if the level is not cached. */
    void appendSlot(std::vector<MemOp> &ops, NodeId node, unsigned slot,
                    bool write) const;

    /** Append a metadata line op if the level is not cached. */
    void appendMeta(std::vector<MemOp> &ops, NodeId node, bool write) const;

    bool levelCached(NodeId node) const;

    OramParams params_;
    TreeLayout layout_;
    ReshuffleMode mode_;
    unsigned cachedLevels_;
    Rng rng_;
    TreeStore tree_;
    Stash stash_;
    std::uint64_t accessCount_ = 0;
    std::uint64_t evictCounter_ = 0;
    /**
     * Target of the in-progress accessInto(); excluded from bucket
     * refills so the hierarchy can read/update its payload in the stash
     * after accessInto() returns (and so a pre-check reset cannot
     * re-plant it on its stale path after the position map was already
     * updated).
     */
    BlockId inFlight_ = kInvalid;
    EngineStats stats_;

    // Per-access scratch buffers, reused across accesses so the steady
    // state allocates nothing. Phase ops are staged here and swapped
    // into the plan's recycled slots at assembly; the swap hands back
    // the slot's previous buffer, so capacity ping-pongs between the
    // engine and the plans instead of returning to the heap.
    std::vector<NodeId> pathScratch_;    ///< ReadPath node ids.
    std::vector<NodeId> evictScratch_;   ///< EvictPath node ids.
    std::vector<NodeId> bypassScratch_;  ///< Pre-mode bypassed nodes.
    std::vector<MemOp> lmScratch_;       ///< LM phase ops.
    std::vector<MemOp> erReadScratch_;   ///< ER fetch ops.
    std::vector<MemOp> erWriteScratch_;  ///< ER write-back ops.
    std::vector<MemOp> rpScratch_;       ///< RP phase ops.
    std::vector<MemOp> epReadScratch_;   ///< EP fetch ops.
    std::vector<MemOp> epWriteScratch_;  ///< EP write-back ops.
    std::vector<BlockContent> takeScratch_;   ///< takeAllValid staging.
    std::vector<BlockId> chosenScratch_;      ///< eligibleForInto staging.
    std::vector<BlockContent> refillScratch_; ///< Bucket refill staging.
};

} // namespace palermo

#endif // PALERMO_ORAM_LEVEL_ENGINE_HH
