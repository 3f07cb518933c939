/**
 * @file
 * Lazily allocated ORAM tree in structure-of-arrays layout: bucket
 * state materializes on first touch.
 *
 * A 16 GB protected space has 2^25 nodes; an execution only ever touches
 * the paths it accesses, so lazy allocation makes the paper's full
 * Table III geometry constructible in O(touched paths) host memory.
 * Untouched buckets are, by definition, all-dummy and fresh.
 *
 * Layout: bucket state is split across parallel arrays rather than
 * per-node heap objects. Each materialized bucket owns a contiguous
 * run of the shared slot arrays (slotBlock_/slotPayload_/slotLeaf_),
 * and one 64-bit word per slot encodes the full slot state:
 *
 *   slotBlock_[i] <  kUsedSlot  -- valid real block with that id
 *   slotBlock_[i] == kDummySlot -- untouched dummy (kInvalid)
 *   slotBlock_[i] == kUsedSlot  -- consumed (read this epoch)
 *
 * so the per-access scans (slotOf, touchDummy, validRealCount,
 * needsReset) are branchy loops over one dense u64 array instead of
 * walks over Slot structs with separate valid flags. Node-id lookup is
 * a direct-index table for the hot top-of-tree ids (every path crosses
 * them) with a flat open-addressing map for the deep-tree tail.
 *
 * Bucket state is exposed through Bucket / ConstBucket views (plain
 * {store, index} pairs) that carry the old NodeMeta member API.
 *
 * Bulk load (prefill): the start state of a prefilled tree is the one a
 * per-block greedy loop produces — blocks in id order, each placed in
 * the deepest non-full bucket on its leaf's path (PageORAM: the path
 * bucket, then its sibling, level by level), leftovers to the stash.
 * prefill() builds that state level by level instead: fill the leaves
 * in block-id order, then walk only the overflow upward, one pass per
 * level, still in block-id order; what climbs past the root goes to the
 * stash in that order. This is slot-for-slot identical because the
 * blocks that reach a bucket (or sibling pair), and the order they
 * arrive in, depend only on the levels below it: a block reaches level
 * L exactly when every bucket it tried below was already full, and
 * each pass visits the blocks of its level in id order. Every bucket
 * the greedy loop would try is materialized, so the touched set matches
 * too.
 *
 * Reservation rule: prefill() reserves capacity for every bucket of the
 * tree before it starts. The reservation is address space only — pages
 * are touched as buckets materialize — and it means no later run-time
 * materialization reallocates (and so double-copies) the slot arrays.
 * Lazily built trees (no prefill) grow on demand as before.
 */

#ifndef PALERMO_ORAM_TREE_STORE_HH
#define PALERMO_ORAM_TREE_STORE_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/pool.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "oram/node_meta.hh"
#include "oram/oram_params.hh"

namespace palermo {

class PosMap;

/** Container of materialized bucket states for one ORAM tree. */
class TreeStore
{
  public:
    /** Slot-state sentinel: untouched dummy. */
    static constexpr std::uint64_t kDummySlot = kInvalid;
    /** Slot-state sentinel: consumed (real or dummy) this epoch. */
    static constexpr std::uint64_t kUsedSlot = kInvalid - 1;

    /**
     * Mutable view of one materialized bucket: the NodeMeta API over
     * the store's slot arrays. Cheap to copy; valid until the store
     * is destroyed (materializing other nodes does not invalidate the
     * view's bucket index, only raw slot pointers, which the view does
     * not hold).
     */
    class Bucket
    {
      public:
        Bucket(TreeStore *store, std::uint32_t index)
            : store_(store), index_(index)
        {
        }

        unsigned
        capacity() const
        {
            return store_->levelCapacity_[store_->level_[index_]];
        }

        unsigned
        slots() const
        {
            return store_->levelSlots_[store_->level_[index_]];
        }

        /** Touches since the last reset. */
        unsigned accessed() const { return store_->accessed_[index_]; }

        /** Count of valid (un-consumed) real blocks in the bucket. */
        unsigned
        validRealCount() const
        {
            const std::uint64_t *block = slotBlocks();
            const unsigned n = slots();
            unsigned count = 0;
            for (unsigned i = 0; i < n; ++i)
                count += block[i] < kUsedSlot;
            return count;
        }

        /** Slot index of an unread real block, or -1 if absent. */
        int
        slotOf(BlockId block) const
        {
            const std::uint64_t *ids = slotBlocks();
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] == block)
                    return static_cast<int>(i);
            }
            return -1;
        }

        /**
         * Consume the real block at `slot` (path read of the target).
         * Marks the slot used, bumps the access counter.
         * @return The block content removed from the bucket.
         */
        BlockContent
        takeReal(unsigned slot)
        {
            palermo_assert(slot < slots());
            std::uint64_t *ids = slotBlocks();
            palermo_assert(ids[slot] < kUsedSlot,
                           "takeReal on used or dummy slot");
            const std::uint64_t base = store_->slotBase_[index_];
            BlockContent out{ids[slot], store_->slotPayload_[base + slot],
                             store_->slotLeaf_[base + slot]};
            ids[slot] = kUsedSlot;
            ++store_->accessed_[index_];
            return out;
        }

        /**
         * Touch an unused dummy slot chosen uniformly at random.
         * @return Chosen slot index, or -1 if no dummy remains (a
         *         protocol violation the caller must treat as fatal).
         */
        int
        touchDummy(Rng &rng)
        {
            // Reservoir-sample a random unused dummy slot (matches the
            // random permutation semantics of RingORAM without
            // materializing it). One rng.range per candidate, in slot
            // order — this exact draw sequence is byte-determinism
            // load-bearing.
            std::uint64_t *ids = slotBlocks();
            const unsigned n = slots();
            int chosen = -1;
            unsigned seen = 0;
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] != kDummySlot)
                    continue;
                ++seen;
                if (rng.range(seen) == 0)
                    chosen = static_cast<int>(i);
            }
            if (chosen >= 0) {
                ids[chosen] = kUsedSlot;
                ++store_->accessed_[index_];
            }
            return chosen;
        }

        /**
         * Remove and return all remaining valid real blocks
         * (ResetBucket's fetch step / PathORAM's whole-bucket read).
         */
        std::vector<BlockContent>
        takeAllValid()
        {
            std::vector<BlockContent> out;
            takeAllValidInto(&out);
            return out;
        }

        /** takeAllValid into a caller-owned buffer (cleared first). */
        void
        takeAllValidInto(std::vector<BlockContent> *out)
        {
            out->clear();
            std::uint64_t *ids = slotBlocks();
            const std::uint64_t base = store_->slotBase_[index_];
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] < kUsedSlot) {
                    out->push_back({ids[i], store_->slotPayload_[base + i],
                                    store_->slotLeaf_[base + i]});
                    ids[i] = kUsedSlot;
                }
            }
        }

        /**
         * Rebuild the bucket with the given real blocks (<= capacity);
         * all other slots become fresh dummies and counters clear.
         */
        void
        resetWith(const std::vector<BlockContent> &blocks)
        {
            palermo_assert(blocks.size() <= capacity(),
                           "bucket overfilled on reset");
            std::uint64_t *ids = slotBlocks();
            const std::uint64_t base = store_->slotBase_[index_];
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i)
                ids[i] = kDummySlot;
            for (std::size_t i = 0; i < blocks.size(); ++i) {
                palermo_assert(blocks[i].block < kUsedSlot);
                ids[i] = blocks[i].block;
                store_->slotPayload_[base + i] = blocks[i].payload;
                store_->slotLeaf_[base + i] = blocks[i].leaf;
            }
            store_->accessed_[index_] = 0;
        }

        /** Raw state of one slot: block word (an id or a slot
         *  sentinel), payload and leaf. */
        BlockContent
        slot(unsigned i) const
        {
            palermo_assert(i < slots());
            const std::uint64_t at = store_->slotBase_[index_] + i;
            return {store_->slotBlock_[at], store_->slotPayload_[at],
                    store_->slotLeaf_[at]};
        }

        /**
         * Place one block into the first free dummy slot if the bucket
         * still has real capacity: the per-block placement step that
         * prefill() reproduces in bulk (the protocol itself always
         * rebuilds whole buckets).
         * @return true if placed.
         */
        bool
        tryPlace(const BlockContent &content)
        {
            palermo_assert(content.block < kUsedSlot);
            if (validRealCount() >= capacity())
                return false;
            std::uint64_t *ids = slotBlocks();
            const std::uint64_t base = store_->slotBase_[index_];
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] == kDummySlot) {
                    ids[i] = content.block;
                    store_->slotPayload_[base + i] = content.payload;
                    store_->slotLeaf_[base + i] = content.leaf;
                    return true;
                }
            }
            return false;
        }

        /** True if a path read here would find no usable dummy. */
        bool
        needsReset() const
        {
            const std::uint64_t *ids = slotBlocks();
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] == kDummySlot)
                    return false;
            }
            return true;
        }

      private:
        std::uint64_t *
        slotBlocks() const
        {
            return store_->slotBlock_.data() + store_->slotBase_[index_];
        }

        TreeStore *store_;
        std::uint32_t index_;
    };

    /**
     * Read-only bucket view that may also be empty (untouched node):
     * the peek() result. Test with operator bool before use.
     */
    class ConstBucket
    {
      public:
        ConstBucket() = default;
        ConstBucket(const TreeStore *store, std::uint32_t index)
            : store_(store), index_(index)
        {
        }

        /** True if the node was materialized (bucket state exists). */
        explicit operator bool() const { return store_ != nullptr; }

        unsigned
        capacity() const
        {
            return view().capacity();
        }

        unsigned slots() const { return view().slots(); }
        unsigned accessed() const { return view().accessed(); }
        int slotOf(BlockId block) const { return view().slotOf(block); }
        BlockContent slot(unsigned i) const { return view().slot(i); }

      private:
        Bucket
        view() const
        {
            palermo_assert(store_ != nullptr, "peek of untouched node");
            return Bucket(const_cast<TreeStore *>(store_), index_);
        }

        const TreeStore *store_ = nullptr;
        std::uint32_t index_ = 0;
    };

    explicit TreeStore(const OramParams &params);

    /** Get (materializing if needed) the bucket state of a node. */
    Bucket
    node(NodeId id)
    {
        std::uint32_t index = lookup(id);
        if (index == kNoBucket)
            index = materialize(id);
        return Bucket(this, index);
    }

    /** Read-only lookup without materializing; falsey if untouched. */
    ConstBucket
    peek(NodeId id) const
    {
        const std::uint32_t index = lookup(id);
        return index == kNoBucket ? ConstBucket()
                                  : ConstBucket(this, index);
    }

    /** True if the node has been materialized (touched). */
    bool touched(NodeId id) const { return lookup(id) != kNoBucket; }

    /** Number of materialized buckets (memory footprint probe). */
    std::size_t touchedCount() const { return level_.size(); }

    /** Count valid real blocks across materialized buckets. */
    std::uint64_t totalValidBlocks() const;

    /**
     * Bulk-load a never-touched tree with blocks [0, numBlocks), each
     * on its position-map leaf with payload 0 (see the file comment for
     * the level-wise order and the reservation rule).
     * @param siblings PageORAM residence: a block that finds its path
     *        bucket full tries that bucket's sibling before climbing.
     * @return Blocks that fit in no bucket, in block-id order; the
     *         caller stashes them.
     */
    std::vector<BlockContent> prefill(const PosMap &posmap, bool siblings);

    const OramParams &params() const { return params_; }

  private:
    friend class Bucket;
    friend class ConstBucket;

    static constexpr std::uint32_t kNoBucket = 0xFFFFFFFFu;
    /**
     * Nodes below this id resolve through the direct-index table (the
     * top ~18 tree levels — every path crosses them, so they are the
     * hot set); deeper ids go through the flat map tail. 2^18 entries
     * caps the table at 1 MB per tree.
     */
    static constexpr std::uint64_t kDirectNodes = std::uint64_t{1} << 18;

    std::uint32_t
    lookup(NodeId id) const
    {
        palermo_assert(id < params_.numNodes, "node id out of tree");
        if (id < directLimit_)
            return direct_[id];
        const std::uint32_t *index = tail_.findValue(id);
        return index == nullptr ? kNoBucket : *index;
    }

    std::uint32_t materialize(NodeId id);

    OramParams params_;
    PoolResource pool_; ///< Declared before tail_ (destruction order).

    // Node-id -> bucket index.
    std::uint64_t directLimit_ = 0;
    std::vector<std::uint32_t> direct_;
    FlatMap<NodeId, std::uint32_t> tail_;

    // Per-level geometry caches (avoid zPerLevel branches per access).
    std::vector<std::uint32_t> levelCapacity_;
    std::vector<std::uint32_t> levelSlots_;

    // Per-bucket state, indexed by bucket index.
    std::vector<std::uint8_t> level_;
    std::vector<std::uint32_t> accessed_;
    std::vector<std::uint64_t> slotBase_; ///< First slot in slot arrays.

    // Per-slot state, shared across buckets (see file comment).
    std::vector<std::uint64_t> slotBlock_;
    std::vector<std::uint64_t> slotPayload_;
    std::vector<std::uint64_t> slotLeaf_;
};

} // namespace palermo

#endif // PALERMO_ORAM_TREE_STORE_HH
