/**
 * @file
 * ORAM tree geometry and protocol parameters.
 *
 * One OramParams instance describes a single ORAM tree (the hierarchical
 * designs instantiate three: Data, PosMap1, PosMap2). RingORAM buckets
 * hold up to Z real blocks plus S dummies; PathORAM uses S = 0 and reads
 * whole buckets. Per-level capacity overrides support LAORAM's fat tree
 * and IR-ORAM's reduced mid-tree buckets.
 */

#ifndef PALERMO_ORAM_ORAM_PARAMS_HH
#define PALERMO_ORAM_ORAM_PARAMS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace palermo {

/**
 * Most blocks one tree may protect. TreeStore keeps block ids and leaves
 * in 32 bits below two sentinel words, and a tree has at most one leaf
 * per block, rounded up to a power of two, so 2^31 keeps both below
 * them. Every parser of a block count rejects larger values.
 */
constexpr std::uint64_t kMaxTreeBlocks = std::uint64_t{1} << 31;

/** Geometry and protocol constants of one ORAM tree. */
struct OramParams
{
    std::uint64_t numBlocks = 0;  ///< Real blocks protected by this tree.
    unsigned z = 16;              ///< Real-capable slots per bucket.
    unsigned s = 27;              ///< Dummy slots per bucket (Ring only).
    unsigned a = 20;              ///< EvictPath every A accesses (Ring).
    unsigned blockBytes = kBlockBytes; ///< Payload bytes per slot.

    // Derived geometry.
    unsigned levels = 0;          ///< Tree levels, root..leaf = levels.
    std::uint64_t numLeaves = 0;  ///< 2^(levels-1).
    std::uint64_t numNodes = 0;   ///< 2^levels - 1.

    /** Optional per-level real capacity override (fat tree / IR-ORAM). */
    std::vector<unsigned> zPerLevel;

    /** RingORAM-style parameters (Z, S, A). */
    static OramParams ring(std::uint64_t num_blocks, unsigned z,
                           unsigned s, unsigned a,
                           unsigned block_bytes = kBlockBytes);

    /** PathORAM-style parameters (Z real slots, no dummies). */
    static OramParams path(std::uint64_t num_blocks, unsigned z,
                           unsigned block_bytes = kBlockBytes);

    /** Real-block capacity of a bucket at the given level (root = 0). */
    unsigned capacityAt(unsigned level) const
    {
        return zPerLevel.empty() ? z : zPerLevel[level];
    }

    /** Total slots (real + dummy) of a bucket at the given level. */
    unsigned slotsAt(unsigned level) const { return capacityAt(level) + s; }

    /** Number of 64B DRAM lines per slot. */
    unsigned linesPerSlot() const { return blockBytes / kBlockBytes; }

    /** Leaf level index (== levels - 1). */
    unsigned leafLevel() const { return levels - 1; }

    /** Heap-order node id of the given position within a level. */
    NodeId nodeAt(unsigned level, std::uint64_t index) const;

    /** Node id of the bucket at `level` on the path to `leaf`. */
    NodeId ancestorOfLeaf(Leaf leaf, unsigned level) const;

    /** Level of a node id. */
    unsigned levelOf(NodeId node) const;

    /** Parent node id (root's parent is itself). */
    NodeId parentOf(NodeId node) const;

    /** True if `node` lies on the root-to-leaf path of `leaf`. */
    bool onPath(NodeId node, Leaf leaf) const;

    /** Path node ids from root (index 0) to leaf (index levels-1). */
    std::vector<NodeId> pathNodes(Leaf leaf) const;

    /** pathNodes into a caller-owned buffer (cleared first). */
    void pathNodesInto(Leaf leaf, std::vector<NodeId> *nodes) const;

    /** Validate internal consistency; panics on misconfiguration. */
    void check() const;
};

/**
 * Reverse-lexicographic eviction leaf sequence used by RingORAM's
 * deterministic EvictPath (G = bit-reversed counter), which spreads
 * consecutive evictions across the tree.
 */
Leaf evictionLeaf(std::uint64_t counter, std::uint64_t num_leaves);

/** Apply LAORAM's fat-tree capacities: 2Z at root tapering to Z at leaf. */
void applyFatTree(OramParams &params);

/** Apply IR-ORAM's reduced mid-tree capacities. */
void applyIrTreeShrink(OramParams &params);

} // namespace palermo

#endif // PALERMO_ORAM_ORAM_PARAMS_HH
