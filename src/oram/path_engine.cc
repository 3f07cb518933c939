/**
 * @file
 * PathEngine: read-every-slot path access and write-back eviction for
 * classical PathORAM (Stefanov et al.).
 */

#include "oram/path_engine.hh"

#include <algorithm>

#include "common/log.hh"

namespace palermo {

PathEngine::PathEngine(const OramParams &params, Addr base,
                       unsigned cached_levels, bool sibling_mode,
                       std::uint64_t seed, std::size_t stash_capacity)
    : params_(params), layout_(base, params),
      cachedLevels_(std::min(cached_levels, params.levels)),
      siblingMode_(sibling_mode), rng_(seed), tree_(params),
      stash_(stash_capacity)
{
    palermo_assert(params_.s == 0,
                   "PathORAM buckets have no distinguished dummies");
}

bool
PathEngine::levelCached(NodeId node) const
{
    return params_.levelOf(node) < cachedLevels_;
}

void
PathEngine::appendSlot(std::vector<MemOp> &ops, NodeId node, unsigned slot,
                       bool write) const
{
    if (levelCached(node))
        return;
    layout_.appendSlotOps(ops, node, slot, write);
}

void
PathEngine::appendMeta(std::vector<MemOp> &ops, NodeId node,
                       bool write) const
{
    if (levelCached(node))
        return;
    ops.push_back({layout_.metaAddr(node), write});
}

void
PathEngine::accessSetInto(Leaf leaf, std::vector<NodeId> *nodes) const
{
    params_.pathNodesInto(leaf, nodes);
    if (siblingMode_) {
        // PageORAM: include the sibling of every non-root path node;
        // siblings are heap-adjacent, so these reads are row-buffer
        // friendly.
        const std::size_t path_len = nodes->size();
        for (std::size_t i = 1; i < path_len; ++i) {
            const NodeId node = (*nodes)[i];
            const NodeId sibling =
                (node % 2 == 1) ? node + 1 : node - 1;
            nodes->push_back(sibling);
        }
    }
}

bool
PathEngine::eligible(NodeId node, Leaf leaf) const
{
    if (params_.onPath(node, leaf))
        return true;
    if (siblingMode_ && node != 0) {
        // Sibling residence: the node's parent must lie on the path, so
        // a future access-set read of `leaf` still covers this bucket.
        return params_.onPath(params_.parentOf(node), leaf);
    }
    return false;
}

void
PathEngine::runInto(BlockId block, Leaf leaf, Leaf new_leaf, bool dummy,
                    const std::vector<BlockId> *group, LevelPlan *plan)
{
    palermo_assert(leaf < params_.numLeaves);

    plan->reset();
    plan->block = block;
    plan->oldLeaf = leaf;
    plan->newLeaf = new_leaf;
    inFlight_ = dummy ? kInvalid : block;

    accessSetInto(leaf, &nodesScratch_);
    const std::vector<NodeId> &nodes = nodesScratch_;
    const std::size_t path_len = params_.levels;
    lmScratch_.clear();
    rpScratch_.clear();
    epScratch_.clear();

    // LM: bucket headers along the access set. In sibling (PageORAM)
    // mode a DRAM page holds a bucket pair with one shared header, so
    // only the path nodes contribute metadata lines.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (siblingMode_ && i >= path_len)
            continue;
        appendMeta(lmScratch_, nodes[i], false);
    }

    // RP: read every slot of every bucket in the access set into the
    // stash.
    for (NodeId node : nodes) {
        auto meta = tree_.node(node);
        const unsigned capacity =
            params_.capacityAt(params_.levelOf(node));
        for (unsigned i = 0; i < capacity; ++i)
            appendSlot(rpScratch_, node, i, false);
        meta.takeAllValidInto(&takeScratch_);
        for (const BlockContent &content : takeScratch_)
            stash_.put(content.block, content.leaf, content.payload);
    }

    if (!dummy) {
        if (stash_.contains(block)) {
            // Found on the path (just pulled) or pending from earlier.
            stash_.remap(block, new_leaf);
        } else {
            plan->freshBlock = true;
            stash_.put(block, new_leaf, 0);
            ++stats_.freshBlocks;
        }
    }

    // Prefetch-group co-remap (before write-back, so the eviction sees
    // the members' shared destiny and cannot plant them deep on the old
    // path): every member is either on the just-read path (now in the
    // stash) or fresh.
    if (group != nullptr) {
        for (BlockId member : *group) {
            if (member == block)
                continue;
            if (stash_.contains(member)) {
                stash_.remap(member, new_leaf);
            } else {
                stash_.put(member, new_leaf, 0);
                ++stats_.freshBlocks;
            }
        }
    }

    // EP: immediately write the same access set back, deepest first, so
    // blocks sink as far toward their leaves as eligibility allows.
    plan->hasEvict = true;
    orderScratch_.assign(nodes.begin(), nodes.end());
    std::sort(orderScratch_.begin(), orderScratch_.end(),
              [this](NodeId a, NodeId b) {
                  return params_.levelOf(a) > params_.levelOf(b);
              });
    for (NodeId node : orderScratch_) {
        const unsigned level = params_.levelOf(node);
        const unsigned capacity = params_.capacityAt(level);
        refillScratch_.clear();
        refillScratch_.reserve(capacity);
        for (const StashItem &item : stash_.items()) {
            if (refillScratch_.size() >= capacity)
                break;
            if (item.block == inFlight_)
                continue;
            if (eligible(node, item.entry.leaf))
                refillScratch_.push_back({item.block, item.entry.payload,
                                          item.entry.leaf});
        }
        for (const BlockContent &content : refillScratch_)
            stash_.take(content.block);
        tree_.node(node).resetWith(refillScratch_);
        for (unsigned i = 0; i < capacity; ++i)
            appendSlot(epScratch_, node, i, true);
        // Sibling-mode: the pair's shared header is written with the
        // on-path bucket only.
        if (!siblingMode_ || params_.onPath(node, leaf))
            appendMeta(epScratch_, node, true);
    }

    ++stats_.accesses;
    plan->phases.emplaceBack(PhaseKind::LoadMeta).ops.swap(lmScratch_);
    plan->phases.emplaceBack(PhaseKind::ReadPath).ops.swap(rpScratch_);
    plan->phases.emplaceBack(PhaseKind::EvictWrite).ops.swap(epScratch_);
}

void
PathEngine::accessInto(BlockId block, Leaf leaf, Leaf new_leaf,
                       LevelPlan *plan)
{
    palermo_assert(block < params_.numBlocks);
    palermo_assert(new_leaf < params_.numLeaves);
    runInto(block, leaf, new_leaf, false, nullptr, plan);
}

void
PathEngine::accessGroupInto(BlockId block,
                            const std::vector<BlockId> &members, Leaf leaf,
                            Leaf new_leaf, LevelPlan *plan)
{
    palermo_assert(block < params_.numBlocks);
    palermo_assert(new_leaf < params_.numLeaves);
    runInto(block, leaf, new_leaf, false, &members, plan);
}

void
PathEngine::dummyAccessInto(Leaf leaf, LevelPlan *plan)
{
    runInto(kInvalid, leaf, leaf, true, nullptr, plan);
}

std::uint64_t
PathEngine::payloadOf(BlockId block) const
{
    return stash_.entry(block).payload;
}

void
PathEngine::setPayload(BlockId block, std::uint64_t value)
{
    stash_.entry(block).payload = value;
}

bool
PathEngine::satisfiesInvariant(BlockId block, Leaf leaf) const
{
    if (stash_.contains(block))
        return true;
    std::vector<NodeId> nodes;
    accessSetInto(leaf, &nodes);
    for (NodeId node : nodes) {
        const auto meta = tree_.peek(node);
        if (meta && meta.slotOf(block) >= 0)
            return true;
    }
    return false;
}

} // namespace palermo
