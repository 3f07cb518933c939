/**
 * @file
 * PrORAM/LAORAM prefetching protocols: leaf-colocated superblocks,
 * Fat-Tree layout, and issue throttling (paper Fig. 4 setup).
 */

#include "oram/pr_oram.hh"

namespace palermo {

PrOram::PrOram(const ProtocolConfig &config)
    : hier_(config, {0x50524f52ull, 307, 733},
            [&config](unsigned level, std::uint64_t blocks) {
                OramParams params = OramParams::path(blocks, config.pathZ);
                if (level != kLevelData)
                    return LevelShape{params, config.stashCapacity};
                if (config.fatTree)
                    applyFatTree(params);
                // Data-level defaults share a leaf per prefetch group —
                // the "consecutive addresses to the same leaf" mapping.
                return LevelShape{params, config.prStashCapacity,
                                  config.prefetchLen};
            },
            [](const OramParams &params, Addr base, unsigned cached,
               std::uint64_t seed, std::size_t stash_capacity) {
                return std::make_unique<PathEngine>(
                    params, base, cached, /*sibling_mode=*/false, seed,
                    stash_capacity);
            }),
      filter_(kLlcResidentLines)
{
}

std::size_t
PrOram::dummyThreshold() const
{
    return hier_.engine(kLevelData).stash().capacity() * 3 / 4;
}

bool
PrOram::prefetchActive() const
{
    const ProtocolConfig &config = hier_.config();
    if (config.prefetchLen <= 1)
        return false;
    if (!config.throttle)
        return true;
    // Dynamic throttle (paper §III-B): disable grouping while the recent
    // dummy-request ratio is high.
    if (window_.size() < 16)
        return true;
    std::size_t dummies = 0;
    for (bool d : window_) {
        if (d)
            ++dummies;
    }
    return dummies * 4 < window_.size(); // < 25% dummy ratio
}

void
PrOram::recordPlan(bool dummy)
{
    window_.push_back(dummy);
    if (window_.size() > 64)
        window_.pop_front();
}

void
PrOram::accessInto(BlockId pa, bool write, std::uint64_t value,
                   std::vector<RequestPlan> *out)
{
    const unsigned group = hier_.config().prefetchLen;
    PathEngine &data = hier_.engine(kLevelData);

    // Prefetched lines are LLC-resident: the miss never reaches ORAM.
    if (group > 1 && filter_.hit(pa)) {
        RequestPlan hit = recycler_.acquire(0);
        hit.pa = pa;
        hit.write = write;
        hit.llcHit = true;
        // The line's block may still be in the stash; keep its payload
        // coherent for functional checks.
        if (write && data.inStash(pa))
            data.setPayload(pa, value);
        ++prStats_.llcHits;
        out->push_back(std::move(hit));
        return;
    }

    // Background evictions: drain stash pressure with dummy requests
    // before admitting the real one.
    unsigned injected = 0;
    while (data.stash().occupancy() > dummyThreshold() && injected < 8) {
        RequestPlan dummy = recycler_.acquire(1);
        dummy.dummy = true;
        LevelPlan &level_plan = dummy.levels[0];
        data.dummyAccessInto(hier_.randomLeaf(kLevelData), &level_plan);
        level_plan.level = kLevelData;
        ++prStats_.dummyRequests;
        recordPlan(true);
        out->push_back(std::move(dummy));
        ++injected;
    }

    const bool grouped = prefetchActive();
    if (!grouped && group > 1)
        ++prStats_.throttledAccesses;

    RequestPlan plan = recycler_.acquire(kHierLevels);
    plan.pa = pa;
    plan.write = write;
    hier_.remapPosMapsInto(pa, &plan);

    // Data level with group semantics.
    LevelPlan &level_plan = plan.levels.back();
    if (grouped) {
        // Prefetch: every group sibling still sharing this leaf (the
        // throttle may have ungrouped some) is co-remapped onto the new
        // shared leaf inside the engine access, then marked resident.
        PosMap &pm0 = hier_.posMap(kLevelData);
        const Leaf leaf = pm0.get(pa);
        const Leaf new_leaf = hier_.randomLeaf(kLevelData);
        pm0.set(pa, new_leaf);
        membersScratch_.clear();
        const BlockId group_base = (pa / group) * group;
        for (unsigned i = 0; i < group; ++i) {
            const BlockId member = group_base + i;
            if (member >= hier_.config().numBlocks || member == pa)
                continue;
            if (pm0.get(member) != leaf)
                continue;
            membersScratch_.push_back(member);
        }
        data.accessGroupInto(pa, membersScratch_, leaf, new_leaf,
                             &level_plan);
        level_plan.level = kLevelData;
        for (BlockId member : membersScratch_) {
            pm0.set(member, new_leaf);
            filter_.insert(member);
        }
        filter_.insert(pa);
    } else {
        hier_.remapInto(kLevelData, pa, &level_plan);
    }

    plan.value = hier_.serve(pa, write, value);
    ++prStats_.realRequests;
    recordPlan(false);
    out->push_back(std::move(plan));
}

} // namespace palermo
