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
 * Slot words: bucket state is split across parallel arrays rather than
 * per-node heap objects. Each materialized bucket owns a contiguous
 * run of one shared array of 32-bit slot words (slotBlock_), and the
 * word alone encodes the slot state:
 *
 *   slotBlock_[i] <  kUsedWord  -- valid real block with that id
 *   slotBlock_[i] == kDummyWord -- untouched dummy
 *   slotBlock_[i] == kUsedWord  -- consumed (read this epoch)
 *
 * so the per-access scans (slotOf, touchDummy, validRealCount,
 * needsReset) are branchy loops over one dense u32 array. Bucket::slot
 * widens a sentinel word to the public u64 kDummySlot / kUsedSlot.
 * Node-id lookup is a direct-index table for the hot top-of-tree ids
 * (every path crosses them) with a flat open-addressing map for the
 * deep-tree tail of a lazily grown tree. A prefilled tree indexes every
 * node directly: the bulk load materializes nearly all of its buckets,
 * so a map would only add hashing and slack (on the 2^22-block Ring
 * tree, about 8.5 MB of map against a 2 MB table).
 *
 * Per-block record: a Path ORAM bucket is Z (id, leaf, data) triples,
 * but a real block sits in exactly one slot or in the stash, so the
 * store keeps only the id per slot and each resident block's payload
 * and leaf once, in a 12-B per-block record. The record is written when
 * the block enters a slot (resetWith, tryPlace, prefill) and read when
 * it leaves (takeReal, takeAllValidInto). A prefilled tree holds the
 * records in a dense array of numBlocks entries, allocated by
 * prefill(); any other tree holds them in a flat map keyed by block
 * id that gains an entry the first time a block enters a slot, so a
 * lazily grown tree (the Table III audit) stays O(touched blocks). A
 * leaving block keeps its entry: a block that has entered a slot is
 * from then on in a slot or in the stash, so erasing would save at
 * most a stash's worth of entries and would cost an erase and an
 * insert for every block an access moves. The store is dense exactly
 * when prefill() ran.
 *
 * Residency rule: the record's leaf word doubles as the "not in a slot"
 * marker (kNotResident). A block entering a slot while it sits in
 * another slot of the same tree panics at the placement, which catches
 * a duplicate where it is made rather than as a stale value on some
 * later read.
 *
 * 32-bit bound: ids and leaves are stored in 32 bits. The largest space
 * is Table III's 2^28 lines, and its largest tree has 2^27 leaves
 * (PageORAM, Z = 2); the constructor asserts that numBlocks and
 * numLeaves are at most kMaxTreeBlocks (oram/oram_params.hh), which
 * keeps both below the u32 sentinels, and every parser of a block count
 * rejects larger values.
 *
 * Bucket state is exposed through Bucket / ConstBucket views (plain
 * {store, index} pairs) that carry the old NodeMeta member API.
 *
 * Bulk load (prefill): the start state of a prefilled tree is the one a
 * per-block greedy loop produces — blocks in id order, each placed in
 * the deepest non-full bucket on its leaf's path (PageORAM: the path
 * bucket, then its sibling, level by level), leftovers to the stash.
 * prefill() builds that state in leaf order instead, one subtree of
 * about kSubtreeBlocks blocks at a time:
 *   1. Read every block's leaf from the position map, which stores
 *      them all, and counting-sort the blocks into subtrees, ids
 *      ascending inside each.
 *   2. Per subtree, counting-sort its blocks into leaf groups, ids
 *      ascending inside each group; fill the leaves group by group,
 *      then climb level by level to just below the subtree's root. A
 *      bucket (or sibling pair) takes the merge of its children's
 *      overflow lists in id order and passes on, in id order, what
 *      fits in neither.
 *   3. Run the few levels above the subtrees the same way on what the
 *      subtrees passed on; what climbs past the root goes to the stash
 *      in id order.
 *   4. Write the per-block records in one sequential pass.
 * This is slot-for-slot identical because the blocks that reach a
 * bucket (or sibling pair), and the order they arrive in, depend only
 * on the levels below it: a block reaches level L exactly when every
 * bucket it tried below was already full, and each bucket takes its
 * arrivals in id order, as the greedy loop did. Every bucket the greedy
 * loop would try is materialized, so the touched set matches too; only
 * the order in which buckets materialize (their index in the slot
 * arrays) changes, and nothing reads it.
 *
 * Scratch rule: the sorts and the overflow lists live in the dense
 * record array, whose 12 B per block the last pass rewrites anyway.
 * Beside it the build holds only one subtree's leaf-group ends and the
 * subtrees' list ends. A separate buffer would add to peak RSS, and
 * the allocator may keep freed buffers of that size in the heap after
 * the build.
 *
 * Reservation rule: prefill() reserves capacity for every bucket of the
 * tree before it starts, and sizes the direct node index to the whole
 * tree, so the tail map stays empty. The reservation is address space
 * only — pages are touched as buckets materialize — and it means no
 * later run-time materialization reallocates (and so double-copies) the
 * slot array. Lazily built trees (no prefill) grow on demand, and keep
 * the direct index capped at kDirectNodes.
 */

#ifndef PALERMO_ORAM_TREE_STORE_HH
#define PALERMO_ORAM_TREE_STORE_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
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
     * Blocks per subtree of the bulk load, about (file comment): a
     * subtree's ids, leaves and leaf-ordered ids take 12 B each and its
     * leaf-group ends 4 B per leaf, so its sorts and its climb stay
     * within a core's cache while its buckets are written in order.
     */
    static constexpr std::uint64_t kSubtreeBlocks = std::uint64_t{1} << 16;

    /**
     * Mutable view of one materialized bucket: the NodeMeta API over
     * the store's slot words and per-block records. Cheap to copy;
     * valid until the store is destroyed (materializing other nodes
     * does not invalidate the view's bucket index, only raw slot
     * pointers, which the view does not hold).
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
            const std::uint32_t *ids = slotBlocks();
            const unsigned n = slots();
            unsigned count = 0;
            for (unsigned i = 0; i < n; ++i)
                count += ids[i] < kUsedWord;
            return count;
        }

        /** Slot index of an unread real block, or -1 if absent. */
        int
        slotOf(BlockId block) const
        {
            if (block >= kUsedWord)
                return -1;
            const auto word = static_cast<std::uint32_t>(block);
            const std::uint32_t *ids = slotBlocks();
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] == word)
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
            std::uint32_t *ids = slotBlocks();
            palermo_assert(ids[slot] < kUsedWord,
                           "takeReal on used or dummy slot");
            const BlockContent out = store_->leave(ids[slot]);
            ids[slot] = kUsedWord;
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
            std::uint32_t *ids = slotBlocks();
            const unsigned n = slots();
            int chosen = -1;
            unsigned seen = 0;
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] != kDummyWord)
                    continue;
                ++seen;
                if (rng.range(seen) == 0)
                    chosen = static_cast<int>(i);
            }
            if (chosen >= 0) {
                ids[chosen] = kUsedWord;
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
            std::uint32_t *ids = slotBlocks();
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] < kUsedWord) {
                    out->push_back(store_->leave(ids[i]));
                    ids[i] = kUsedWord;
                }
            }
        }

        /**
         * Rebuild the bucket with the given real blocks (<= capacity);
         * all other slots become fresh dummies and counters clear. A
         * real block still in the bucket is dropped.
         */
        void
        resetWith(const std::vector<BlockContent> &blocks)
        {
            palermo_assert(blocks.size() <= capacity(),
                           "bucket overfilled on reset");
            std::uint32_t *ids = slotBlocks();
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] < kUsedWord)
                    store_->leave(ids[i]);
                ids[i] = kDummyWord;
            }
            for (std::size_t i = 0; i < blocks.size(); ++i) {
                store_->enter(blocks[i]);
                ids[i] = static_cast<std::uint32_t>(blocks[i].block);
            }
            store_->accessed_[index_] = 0;
        }

        /** Raw state of one slot: block word (an id or a slot
         *  sentinel), payload and leaf (0 for a sentinel). */
        BlockContent
        slot(unsigned i) const
        {
            palermo_assert(i < slots());
            const std::uint32_t word = slotBlocks()[i];
            if (word == kDummyWord)
                return {kDummySlot, 0, 0};
            if (word == kUsedWord)
                return {kUsedSlot, 0, 0};
            return store_->resident(word);
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
            if (validRealCount() >= capacity())
                return false;
            std::uint32_t *ids = slotBlocks();
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] == kDummyWord) {
                    store_->enter(content);
                    ids[i] = static_cast<std::uint32_t>(content.block);
                    return true;
                }
            }
            return false;
        }

        /** True if a path read here would find no usable dummy. */
        bool
        needsReset() const
        {
            const std::uint32_t *ids = slotBlocks();
            const unsigned n = slots();
            for (unsigned i = 0; i < n; ++i) {
                if (ids[i] == kDummyWord)
                    return false;
            }
            return true;
        }

      private:
        std::uint32_t *
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
     * the leaf-order build, the scratch rule, the dense per-block
     * records and the reservation rule).
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
    /** Slot words (file comment); every real id lies below both. */
    static constexpr std::uint32_t kDummyWord = 0xFFFFFFFFu;
    static constexpr std::uint32_t kUsedWord = 0xFFFFFFFEu;
    /** Record leaf of a block that sits in no slot (residency rule). */
    static constexpr std::uint32_t kNotResident = 0xFFFFFFFFu;
    /**
     * In a lazily grown tree, nodes below this id resolve through the
     * direct-index table (the top ~18 tree levels — every path crosses
     * them, so they are the hot set); deeper ids go through the flat
     * map tail. 2^18 entries caps the table at 1 MB per tree. A
     * prefilled tree indexes all its nodes directly (file comment).
     */
    static constexpr std::uint64_t kDirectNodes = std::uint64_t{1} << 18;

    /**
     * Per-block record of a block in a slot (file comment): three 32-bit
     * words, payload low and high then leaf, 12 B with no padding. A
     * lazy map entry holds one; a prefilled tree keeps them back to back
     * in dense_, a plain word array the bulk load also uses as scratch
     * (the scratch rule).
     */
    static constexpr unsigned kPayloadLowWord = 0;
    static constexpr unsigned kPayloadHighWord = 1;
    static constexpr unsigned kLeafWord = 2;
    static constexpr unsigned kRecordWords = 3;
    struct Resident
    {
        std::uint32_t word[kRecordWords] = {0, 0, kNotResident};
    };
    static_assert(sizeof(Resident) == 12);

    /** The content of `block` that its record words hold. */
    static BlockContent
    unpack(std::uint32_t block, const std::uint32_t *record)
    {
        return {block,
                (std::uint64_t{record[kPayloadHighWord]} << 32)
                    | record[kPayloadLowWord],
                record[kLeafWord]};
    }

    /** Record words of `block` in a prefilled tree. */
    std::uint32_t *
    denseRecord(std::uint32_t block)
    {
        return dense_.data() + std::size_t{kRecordWords} * block;
    }

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

    /** Record a block entering a slot; panics if it already sits in
     *  one (residency rule). */
    void
    enter(const BlockContent &content)
    {
        palermo_assert(content.block < kUsedWord &&
                       content.leaf < kNotResident,
                       "block id or leaf beyond 32 bits");
        const auto block = static_cast<std::uint32_t>(content.block);
        palermo_assert(dense_.empty() ||
                           block < dense_.size() / kRecordWords,
                       "block outside tree");
        std::uint32_t *record =
            dense_.empty() ? lazy_[block].word : denseRecord(block);
        palermo_assert(record[kLeafWord] == kNotResident,
                       "block already in a slot of this tree");
        record[kPayloadLowWord] = static_cast<std::uint32_t>(content.payload);
        record[kPayloadHighWord] =
            static_cast<std::uint32_t>(content.payload >> 32);
        record[kLeafWord] = static_cast<std::uint32_t>(content.leaf);
    }

    /** Return the record of a block leaving its slot, and mark the
     *  block as in no slot. */
    BlockContent
    leave(std::uint32_t block)
    {
        std::uint32_t *record =
            dense_.empty() ? lazy_.at(block).word : denseRecord(block);
        const BlockContent out = unpack(block, record);
        record[kLeafWord] = kNotResident;
        return out;
    }

    /** Content of a block that sits in a slot. */
    BlockContent
    resident(std::uint32_t block) const
    {
        return unpack(block,
                      dense_.empty()
                          ? lazy_.at(block).word
                          : dense_.data() + std::size_t{kRecordWords} * block);
    }

    OramParams params_;

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
    std::vector<std::uint64_t> slotBase_; ///< First slot in slotBlock_.

    /** Per-slot words, shared across buckets (see file comment). */
    std::vector<std::uint32_t> slotBlock_;

    // Per-block records (file comment): dense_ once prefilled, else
    // lazy_ holds the blocks that have entered a slot.
    std::vector<std::uint32_t> dense_;
    FlatMap<std::uint32_t, Resident> lazy_;
};

} // namespace palermo

#endif // PALERMO_ORAM_TREE_STORE_HH
