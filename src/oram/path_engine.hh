/**
 * @file
 * PathEngine: the PathORAM protocol machinery for a single ORAM tree.
 *
 * PathORAM (Stefanov et al.) reads every block of every bucket on the
 * root-to-leaf path of the target's mapped leaf into the stash, serves
 * the request, remaps the block, and immediately writes the same path
 * back with a greedy deepest-first eviction. Buckets have Z real slots
 * and no distinguished dummies; unfilled slots are encrypted padding.
 *
 * The sibling mode implements PageORAM's extension: the residence set of
 * a block includes the siblings of its path buckets (which are adjacent
 * in the heap layout and thus in the same DRAM page), enabling smaller Z
 * and high row-buffer locality.
 */

#ifndef PALERMO_ORAM_PATH_ENGINE_HH
#define PALERMO_ORAM_PATH_ENGINE_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "oram/layout.hh"
#include "oram/plan.hh"
#include "oram/stash.hh"
#include "oram/tree_store.hh"

namespace palermo {

/** Cumulative PathEngine statistics. */
struct PathEngineStats
{
    std::uint64_t accesses = 0;
    std::uint64_t freshBlocks = 0;
    std::uint64_t stashServes = 0;
};

/** PathORAM protocol engine for one tree. */
class PathEngine
{
  public:
    /**
     * @param params Tree geometry (s must be 0 for PathORAM buckets).
     * @param base DRAM base address of the tree region.
     * @param cached_levels Levels [0, cached_levels) hit the tree-top
     *        cache and emit no DRAM ops.
     * @param sibling_mode PageORAM residence extension.
     * @param seed Engine RNG seed.
     * @param stash_capacity Stash bound for watermark accounting.
     */
    PathEngine(const OramParams &params, Addr base, unsigned cached_levels,
               bool sibling_mode, std::uint64_t seed,
               std::size_t stash_capacity = 256);

    /**
     * Execute one PathORAM access functionally and emit its plan into
     * a recycled plan (reset first).
     * @param block Target block within this tree's space.
     * @param leaf Mapped leaf to read (caller-resolved).
     * @param new_leaf Fresh uniform remap target.
     * @param plan Receives the access's phases.
     */
    void accessInto(BlockId block, Leaf leaf, Leaf new_leaf,
                    LevelPlan *plan);

    /**
     * PrORAM group access: like accessInto(), but every listed group
     * member found on the path (or conjured on first touch) is
     * co-remapped to the shared new leaf *before* the write-back
     * eviction — the forced same-leaf mapping whose stash pressure
     * §III-B analyzes. Members must currently share `leaf` (the caller
     * filters).
     */
    void accessGroupInto(BlockId block, const std::vector<BlockId> &members,
                         Leaf leaf, Leaf new_leaf, LevelPlan *plan);

    /**
     * Execute a dummy access: read and evict a path without serving any
     * block (PrORAM background eviction to relieve stash pressure).
     * @param leaf Random path to exercise.
     * @param plan Receives the access's phases (reset first).
     */
    void dummyAccessInto(Leaf leaf, LevelPlan *plan);

    std::uint64_t payloadOf(BlockId block) const;
    void setPayload(BlockId block, std::uint64_t value);
    bool inStash(BlockId block) const { return stash_.contains(block); }

    Stash &stash() { return stash_; }
    const Stash &stash() const { return stash_; }
    TreeStore &tree() { return tree_; }
    const TreeStore &tree() const { return tree_; }
    const TreeLayout &layout() const { return layout_; }
    const OramParams &params() const { return params_; }
    unsigned cachedLevels() const { return cachedLevels_; }
    const PathEngineStats &stats() const { return stats_; }

    /** True for PageORAM's sibling residence extension. */
    bool siblingMode() const { return siblingMode_; }

    /**
     * Verify the residence invariant: the block is in the stash or in a
     * bucket of its residence set (path, plus siblings in sibling mode).
     */
    bool satisfiesInvariant(BlockId block, Leaf leaf) const;

  private:
    /**
     * Bucket set an access touches, path or path + siblings, into a
     * caller-owned buffer (cleared first).
     */
    void accessSetInto(Leaf leaf, std::vector<NodeId> *nodes) const;

    /** True if `node` may hold a block mapped to `leaf`. */
    bool eligible(NodeId node, Leaf leaf) const;

    /** Core read-path + evict-path shared by real and dummy accesses. */
    void runInto(BlockId block, Leaf leaf, Leaf new_leaf, bool dummy,
                 const std::vector<BlockId> *group, LevelPlan *plan);

    void appendSlot(std::vector<MemOp> &ops, NodeId node, unsigned slot,
                    bool write) const;
    void appendMeta(std::vector<MemOp> &ops, NodeId node, bool write) const;
    bool levelCached(NodeId node) const;

    OramParams params_;
    TreeLayout layout_;
    unsigned cachedLevels_;
    bool siblingMode_;
    Rng rng_;
    TreeStore tree_;
    Stash stash_;
    BlockId inFlight_ = kInvalid;
    PathEngineStats stats_;

    // Per-access scratch buffers, reused across accesses so the steady
    // state allocates nothing. Phase op vectors are filled here and then
    // swapped into the plan's recycled slots at assembly; the swap hands
    // back the slot's previous buffer, so capacity ping-pongs between
    // the engine and the plans instead of returning to the heap.
    std::vector<NodeId> nodesScratch_;   ///< Access set.
    std::vector<NodeId> orderScratch_;   ///< Deepest-first eviction order.
    std::vector<MemOp> lmScratch_;       ///< LM phase ops.
    std::vector<MemOp> rpScratch_;       ///< RP phase ops.
    std::vector<MemOp> epScratch_;       ///< EP write-back ops.
    std::vector<BlockContent> takeScratch_;   ///< takeAllValid staging.
    std::vector<BlockContent> refillScratch_; ///< Bucket refill staging.
};

} // namespace palermo

#endif // PALERMO_ORAM_PATH_ENGINE_HH
