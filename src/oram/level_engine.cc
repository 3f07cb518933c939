/**
 * @file
 * RingEngine: ReadPath/EvictPath/EarlyReshuffle (paper Algorithm 1)
 * for a single ORAM tree, including permuted slot selection and
 * reshuffle scheduling.
 */

#include "oram/level_engine.hh"

#include <algorithm>

#include "common/log.hh"

namespace palermo {

RingEngine::RingEngine(const OramParams &params, Addr base,
                       ReshuffleMode mode, unsigned cached_levels,
                       std::uint64_t seed, std::size_t stash_capacity)
    : params_(params), layout_(base, params), mode_(mode),
      cachedLevels_(std::min(cached_levels, params.levels)), rng_(seed),
      tree_(params), stash_(stash_capacity)
{
    palermo_assert(params_.s >= 1, "RingORAM needs dummy slots");
}

bool
RingEngine::levelCached(NodeId node) const
{
    return params_.levelOf(node) < cachedLevels_;
}

void
RingEngine::appendSlot(std::vector<MemOp> &ops, NodeId node, unsigned slot,
                       bool write) const
{
    if (levelCached(node))
        return;
    layout_.appendSlotOps(ops, node, slot, write);
}

void
RingEngine::appendMeta(std::vector<MemOp> &ops, NodeId node,
                       bool write) const
{
    if (levelCached(node))
        return;
    ops.push_back({layout_.metaAddr(node), write});
}

void
RingEngine::resetBucket(NodeId node, std::vector<MemOp> &read_ops,
                        std::vector<MemOp> &write_ops)
{
    auto meta = tree_.node(node);
    const unsigned level = params_.levelOf(node);
    const unsigned capacity = params_.capacityAt(level);

    // Fetch step: read the unused real blocks, padded to Z offsets so the
    // bus trace is independent of the bucket's true occupancy.
    for (unsigned i = 0; i < capacity; ++i)
        appendSlot(read_ops, node, i, false);

    // Functional: remaining valid blocks go to the stash. If the reset
    // pulls in the in-flight target, it keeps its (already-remapped)
    // destiny: ReadPath serves it from the stash afterwards.
    meta.takeAllValidInto(&takeScratch_);
    for (const BlockContent &content : takeScratch_)
        stash_.put(content.block, content.leaf, content.payload);

    // ...then WriteBucket refills from eligible stash blocks.
    stash_.eligibleForInto(node, params_, capacity, inFlight_,
                           &chosenScratch_);
    refillScratch_.clear();
    refillScratch_.reserve(chosenScratch_.size());
    for (BlockId block : chosenScratch_) {
        const StashEntry entry = stash_.take(block);
        refillScratch_.push_back({block, entry.payload, entry.leaf});
    }
    meta.resetWith(refillScratch_);

    // Write-back: the whole bucket is re-encrypted and rewritten, plus
    // its metadata line.
    for (unsigned i = 0; i < params_.slotsAt(level); ++i)
        appendSlot(write_ops, node, i, true);
    appendMeta(write_ops, node, true);
}

void
RingEngine::accessInto(BlockId block, Leaf leaf, Leaf new_leaf,
                       LevelPlan *plan)
{
    palermo_assert(block < params_.numBlocks, "block outside tree space");
    palermo_assert(leaf < params_.numLeaves);
    palermo_assert(new_leaf < params_.numLeaves);

    plan->reset();
    plan->block = block;
    plan->oldLeaf = leaf;
    plan->newLeaf = new_leaf;
    inFlight_ = block;

    params_.pathNodesInto(leaf, &pathScratch_);
    const std::vector<NodeId> &path = pathScratch_;
    lmScratch_.clear();
    erReadScratch_.clear();
    erWriteScratch_.clear();
    rpScratch_.clear();
    epReadScratch_.clear();
    epWriteScratch_.clear();
    bypassScratch_.clear();

    // LM: load path metadata (valid bits, access counters).
    for (NodeId node : path)
        appendMeta(lmScratch_, node, false);

    // ER: EarlyReshuffle — before (Pre) or after (Post) ReadPath.
    if (mode_ == ReshuffleMode::Pre) {
        // Palermo Algorithm 2: reset at S-1 so this access's touch can
        // never exhaust the dummies, and bypass the node in ReadPath.
        for (NodeId node : path) {
            auto meta = tree_.node(node);
            if (meta.accessed() >= params_.s - 1) {
                resetBucket(node, erReadScratch_, erWriteScratch_);
                bypassScratch_.push_back(node);
                ++stats_.earlyReshuffles;
            }
        }
    }

    // RP: one slot per non-bypassed path node; the real block where
    // present, a random unused dummy elsewhere.
    bool found = false;
    for (NodeId node : path) {
        if (std::find(bypassScratch_.begin(), bypassScratch_.end(), node)
            != bypassScratch_.end()) {
            continue;
        }
        auto meta = tree_.node(node);
        const int real_slot = meta.slotOf(block);
        if (real_slot >= 0) {
            const BlockContent content =
                meta.takeReal(static_cast<unsigned>(real_slot));
            stash_.put(content.block, new_leaf, content.payload);
            found = true;
            appendSlot(rpScratch_, node, static_cast<unsigned>(real_slot),
                       false);
        } else {
            const int dummy_slot = meta.touchDummy(rng_);
            palermo_assert(dummy_slot >= 0,
                           "no usable dummy: reshuffle protocol violated");
            appendSlot(rpScratch_, node, static_cast<unsigned>(dummy_slot),
                       false);
        }
        // NodeMetadata[NodeID].update(): persist the consumed valid bit.
        appendMeta(rpScratch_, node, true);
    }

    if (!found) {
        if (stash_.contains(block)) {
            // Pending block: already resident in the stash (possibly
            // brought in by this or an earlier concurrent request, or by
            // a bypassed bucket's reset pulling it in above).
            plan->servedFromStash = true;
            stash_.remap(block, new_leaf);
            ++stats_.stashServes;
        } else {
            // First-ever touch: the block has never been written to the
            // tree; conjure it with a zero payload.
            plan->freshBlock = true;
            stash_.put(block, new_leaf, 0);
            ++stats_.freshBlocks;
        }
    } else if (stash_.contains(block)) {
        stash_.remap(block, new_leaf);
    }

    if (mode_ == ReshuffleMode::Post) {
        // Baseline Algorithm 1: EarlyReshuffle(leaf) after ReadPath.
        for (NodeId node : path) {
            auto meta = tree_.node(node);
            if (meta.accessed() >= params_.s) {
                resetBucket(node, erReadScratch_, erWriteScratch_);
                ++stats_.earlyReshuffles;
            }
        }
    }

    // EP: deterministic eviction every A accesses.
    ++accessCount_;
    ++stats_.accesses;
    if (accessCount_ % params_.a == 0) {
        plan->hasEvict = true;
        ++stats_.evictions;
        const Leaf g = evictionLeaf(evictCounter_++, params_.numLeaves);
        params_.pathNodesInto(g, &evictScratch_);
        const std::vector<NodeId> &evict_path = evictScratch_;

        // Fetch all remaining valid blocks on the eviction path into the
        // stash (Z-padded reads per node)...
        for (NodeId node : evict_path) {
            auto meta = tree_.node(node);
            const unsigned capacity =
                params_.capacityAt(params_.levelOf(node));
            for (unsigned i = 0; i < capacity; ++i)
                appendSlot(epReadScratch_, node, i, false);
            meta.takeAllValidInto(&takeScratch_);
            for (const BlockContent &content : takeScratch_)
                stash_.put(content.block, content.leaf, content.payload);
        }
        // ...then push back leaf-to-root so blocks land as deep as their
        // leaf assignment allows.
        for (auto it = evict_path.rbegin(); it != evict_path.rend(); ++it) {
            const NodeId node = *it;
            const unsigned level = params_.levelOf(node);
            const unsigned capacity = params_.capacityAt(level);
            stash_.eligibleForInto(node, params_, capacity, inFlight_,
                                   &chosenScratch_);
            refillScratch_.clear();
            refillScratch_.reserve(chosenScratch_.size());
            for (BlockId b : chosenScratch_) {
                const StashEntry entry = stash_.take(b);
                refillScratch_.push_back({b, entry.payload, entry.leaf});
            }
            tree_.node(node).resetWith(refillScratch_);
            for (unsigned i = 0; i < params_.slotsAt(level); ++i)
                appendSlot(epWriteScratch_, node, i, true);
            appendMeta(epWriteScratch_, node, true);
        }
    }

    // Assemble phases in this protocol's execution order; the swaps
    // move the staged ops into the plan's recycled slot buffers.
    plan->phases.emplaceBack(PhaseKind::LoadMeta).ops.swap(lmScratch_);
    if (mode_ == ReshuffleMode::Pre) {
        plan->phases.emplaceBack(PhaseKind::ResetRead)
            .ops.swap(erReadScratch_);
        plan->phases.emplaceBack(PhaseKind::ResetWrite)
            .ops.swap(erWriteScratch_);
        plan->phases.emplaceBack(PhaseKind::ReadPath).ops.swap(rpScratch_);
    } else {
        plan->phases.emplaceBack(PhaseKind::ReadPath).ops.swap(rpScratch_);
        plan->phases.emplaceBack(PhaseKind::ResetRead)
            .ops.swap(erReadScratch_);
        plan->phases.emplaceBack(PhaseKind::ResetWrite)
            .ops.swap(erWriteScratch_);
    }
    if (plan->hasEvict) {
        plan->phases.emplaceBack(PhaseKind::EvictRead)
            .ops.swap(epReadScratch_);
        plan->phases.emplaceBack(PhaseKind::EvictWrite)
            .ops.swap(epWriteScratch_);
    }
}

std::uint64_t
RingEngine::payloadOf(BlockId block) const
{
    return stash_.entry(block).payload;
}

void
RingEngine::setPayload(BlockId block, std::uint64_t value)
{
    stash_.entry(block).payload = value;
}

bool
RingEngine::satisfiesInvariant(BlockId block, Leaf leaf) const
{
    if (stash_.contains(block))
        return true;
    // Walk the path from the mapped leaf; the block must be in one of
    // those buckets. Untouched buckets cannot contain it.
    for (NodeId node : params_.pathNodes(leaf)) {
        const auto meta = tree_.peek(node);
        if (meta && meta.slotOf(block) >= 0)
            return true;
    }
    return false;
}

} // namespace palermo
