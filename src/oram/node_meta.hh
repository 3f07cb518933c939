/**
 * @file
 * The block-content record exchanged between buckets and the stash.
 *
 * Per-bucket functional state (one 32-bit slot word per slot, the access
 * counter that drives RingORAM's EarlyReshuffle) lives in TreeStore's
 * structure-of-arrays storage, and so do the payload and leaf of each
 * block in a slot, once per block. oram/tree_store.hh documents the
 * slot word, the per-block record and the residency rule, and exposes
 * the bucket API.
 */

#ifndef PALERMO_ORAM_NODE_META_HH
#define PALERMO_ORAM_NODE_META_HH

#include <cstdint>

#include "common/types.hh"

namespace palermo {

/** A real block held in a bucket slot or the stash. */
struct BlockContent
{
    BlockId block = kInvalid;
    std::uint64_t payload = 0;
    /**
     * The block's mapped leaf at the time it was written into the tree.
     * A block in a bucket is never remapped in place (remap happens on
     * access, which moves it to the stash), so while the block sits in
     * a bucket this equals its position-map leaf. TreeStore keeps it in
     * the block's record, and eviction places blocks without another
     * position-map consultation.
     */
    Leaf leaf = 0;
};

} // namespace palermo

#endif // PALERMO_ORAM_NODE_META_HH
