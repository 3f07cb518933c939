/**
 * @file
 * Lazy bucket materialization so the 16 GB Table III geometry is
 * constructible without allocating 2^25 nodes up front, and the
 * leaf-order bulk loader for prefilled trees.
 */

#include "oram/tree_store.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/log.hh"
#include "oram/posmap.hh"

namespace palermo {

TreeStore::TreeStore(const OramParams &params)
    : params_(params)
{
    params_.check();
    static_assert(kMaxTreeBlocks < kUsedWord &&
                  kMaxTreeBlocks < kNotResident);
    palermo_assert(params_.numBlocks <= kMaxTreeBlocks &&
                       params_.numLeaves <= kMaxTreeBlocks,
                   "tree exceeds 32-bit block ids or leaves");
    directLimit_ = std::min(params_.numNodes, kDirectNodes);
    direct_.assign(directLimit_, kNoBucket);
    levelCapacity_.resize(params_.levels);
    levelSlots_.resize(params_.levels);
    for (unsigned level = 0; level < params_.levels; ++level) {
        levelCapacity_[level] = params_.capacityAt(level);
        levelSlots_[level] = params_.slotsAt(level);
    }
}

std::uint32_t
TreeStore::materialize(NodeId id)
{
    const unsigned level = params_.levelOf(id);
    const std::uint32_t index = static_cast<std::uint32_t>(level_.size());
    const unsigned slots = levelSlots_[level];

    level_.push_back(static_cast<std::uint8_t>(level));
    accessed_.push_back(0);
    slotBase_.push_back(slotBlock_.size());
    slotBlock_.insert(slotBlock_.end(), slots, kDummyWord);

    if (id < directLimit_)
        direct_[id] = index;
    else
        tail_.emplace(id, index);
    return index;
}

std::uint64_t
TreeStore::totalValidBlocks() const
{
    std::uint64_t total = 0;
    for (const std::uint32_t word : slotBlock_)
        total += word < kUsedWord;
    return total;
}

std::vector<BlockContent>
TreeStore::prefill(const PosMap &posmap, bool siblings)
{
    palermo_assert(level_.empty(), "prefill of a touched tree");
    palermo_assert(posmap.numBlocks() == params_.numBlocks &&
                   posmap.numLeaves() == params_.numLeaves);
    const std::uint64_t blocks = params_.numBlocks;
    const unsigned leaf_level = params_.leafLevel();

    // Every node resolves through the direct index, and the
    // reservation rule (file comment) makes room for every bucket and
    // the dense per-block records.
    directLimit_ = params_.numNodes;
    direct_.assign(directLimit_, kNoBucket);
    std::uint64_t tree_slots = 0;
    for (unsigned level = 0; level < params_.levels; ++level)
        tree_slots += (std::uint64_t{1} << level) * levelSlots_[level];
    level_.reserve(params_.numNodes);
    accessed_.reserve(params_.numNodes);
    slotBase_.reserve(params_.numNodes);
    slotBlock_.reserve(tree_slots);
    dense_.assign(kRecordWords * blocks, 0);

    // Subtrees of 2^shift leaves, each holding about kSubtreeBlocks
    // blocks; their roots sit at level `top`.
    const std::uint64_t per_leaf =
        std::max<std::uint64_t>(1, blocks / params_.numLeaves);
    const unsigned shift = std::min<unsigned>(
        leaf_level,
        std::bit_width(std::max<std::uint64_t>(1, kSubtreeBlocks / per_leaf))
            - 1);
    const std::uint64_t subtree_leaves = std::uint64_t{1} << shift;
    const std::uint64_t subtrees = params_.numLeaves >> shift;
    const unsigned top = leaf_level - shift;

    // Scratch in the record words, 3 per block, rewritten last (the
    // scratch rule): [0, 2 blocks) holds (id, leaf) pairs grouped by
    // subtree, [2 blocks, 3 blocks) one subtree's ids in leaf order.
    static_assert(kRecordWords == 3);
    std::uint32_t *const words = dense_.data();
    std::uint32_t *const by_leaf = words + 2 * blocks;

    // Counting sort into subtrees, ids ascending in each: count,
    // turn counts into starts, scatter (which leaves the ends).
    std::vector<std::uint32_t> subtree_end(subtrees, 0);
    for (BlockId block = 0; block < blocks; ++block)
        ++subtree_end[posmap.get(block) >> shift];
    std::exclusive_scan(subtree_end.begin(), subtree_end.end(),
                        subtree_end.begin(), 0u);
    for (BlockId block = 0; block < blocks; ++block) {
        const Leaf leaf = posmap.get(block);
        std::uint32_t *pair =
            words + 2 * std::size_t{subtree_end[leaf >> shift]++};
        pair[0] = static_cast<std::uint32_t>(block);
        pair[1] = static_cast<std::uint32_t>(leaf);
    }

    // One level over positions [first, first + count): each unit (a
    // bucket, or a sibling pair) takes the merge of its input lists in
    // id order, list i of a pair being bucket i's own arrivals, and
    // writes what fits nowhere to `out` as its own list. List i of
    // `in` ends at ends[i]; on return ends[u] is the end of unit u's
    // list and `lists` the number of units. Returns the ids written.
    const auto fill_level = [&](unsigned level, std::uint64_t first,
                                std::uint64_t count, const std::uint32_t *in,
                                std::uint32_t *ends, std::uint64_t &lists,
                                std::uint32_t *out) {
        const bool pairs = siblings && level > 0;
        const unsigned width = pairs ? 2 : 1;
        const std::uint64_t units = count / width;
        const std::uint64_t per_unit = lists / units;
        const unsigned capacity = levelCapacity_[level];
        std::uint32_t from = 0;
        std::uint32_t written = 0;
        for (std::uint64_t unit = 0; unit < units; ++unit) {
            const std::uint32_t mid = ends[unit * per_unit];
            const std::uint32_t end = ends[unit * per_unit + per_unit - 1];
            std::uint32_t bucket[2] = {kNoBucket, kNoBucket};
            unsigned filled[2] = {0, 0};
            // Trying a bucket materializes it, as the greedy loop's
            // node() lookup did, whether or not the block fits.
            const auto place = [&](unsigned j, std::uint32_t block) {
                if (bucket[j] == kNoBucket)
                    bucket[j] = materialize(
                        params_.nodeAt(level, first + unit * width + j));
                if (filled[j] == capacity)
                    return false;
                slotBlock_[slotBase_[bucket[j]] + filled[j]++] = block;
                return true;
            };
            std::uint32_t a = from;
            std::uint32_t b = mid;
            while (a < mid || b < end) {
                const bool second = a == mid || (b < end && in[b] < in[a]);
                const std::uint32_t block = second ? in[b++] : in[a++];
                const unsigned home = pairs && second;
                if (!place(home, block) && !(pairs && place(home ^ 1, block)))
                    out[written++] = block;
            }
            ends[unit] = written;
            from = end;
        }
        lists = units;
        return written;
    };

    // Each subtree: sort its ids into leaf groups, then climb to the
    // level below its root, the spare first half of its pair slice
    // taking every other level's output. What is left moves to the
    // front of the scratch as input lists of the levels above.
    std::vector<std::uint32_t> group_end(subtree_leaves);
    std::vector<std::uint32_t> top_end;
    top_end.reserve(2 * subtrees);
    std::uint32_t top_size = 0;
    std::size_t begin = 0;
    for (std::uint64_t subtree = 0; subtree < subtrees; ++subtree) {
        const std::size_t end = subtree_end[subtree];
        const std::uint64_t base = subtree * subtree_leaves;
        std::fill(group_end.begin(), group_end.end(), 0u);
        for (std::size_t i = begin; i < end; ++i)
            ++group_end[words[2 * i + 1] - base];
        std::exclusive_scan(group_end.begin(), group_end.end(),
                            group_end.begin(), 0u);
        for (std::size_t i = begin; i < end; ++i)
            by_leaf[group_end[words[2 * i + 1] - base]++] = words[2 * i];

        std::uint32_t *in = by_leaf;
        std::uint32_t *out = words + 2 * begin;
        std::uint64_t lists = subtree_leaves;
        auto size = static_cast<std::uint32_t>(end - begin);
        for (unsigned level = leaf_level; level > top; --level) {
            const std::uint64_t count = std::uint64_t{1} << (level - top);
            size = fill_level(level, subtree * count, count, in,
                              group_end.data(), lists, out);
            std::swap(in, out);
        }
        std::memmove(words + top_size, in, size * sizeof(std::uint32_t));
        for (std::uint64_t list = 0; list < lists; ++list)
            top_end.push_back(top_size + group_end[list]);
        top_size += size;
        begin = end;
    }

    // The levels above the subtrees, their roots first; by_leaf is
    // free again and takes every other level's output.
    std::uint32_t *in = words;
    std::uint32_t *out = by_leaf;
    std::uint64_t lists = top_end.size();
    std::uint32_t size = top_size;
    for (unsigned level = top + 1; level-- > 0;) {
        size = fill_level(level, 0, std::uint64_t{1} << level, in,
                          top_end.data(), lists, out);
        std::swap(in, out);
    }

    // What climbed past the root, in id order, for the stash; then the
    // per-block records in one pass, over the scratch.
    std::vector<BlockContent> spill;
    spill.reserve(size);
    for (std::uint32_t i = 0; i < size; ++i)
        spill.push_back({in[i], 0, posmap.get(in[i])});
    for (BlockId block = 0; block < blocks; ++block) {
        std::uint32_t *record = denseRecord(static_cast<std::uint32_t>(block));
        record[kPayloadLowWord] = 0;
        record[kPayloadHighWord] = 0;
        record[kLeafWord] = static_cast<std::uint32_t>(posmap.get(block));
    }
    for (const BlockContent &content : spill)
        denseRecord(static_cast<std::uint32_t>(content.block))[kLeafWord] =
            kNotResident;
    return spill;
}

} // namespace palermo
