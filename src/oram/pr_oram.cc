/**
 * @file
 * PrORAM/LAORAM prefetching protocols: leaf-colocated superblocks,
 * Fat-Tree layout, and issue throttling (paper Fig. 4 setup).
 */

#include "oram/pr_oram.hh"

#include "common/log.hh"
#include "controller/serial_controller.hh"
#include "sim/protocol_registry.hh"

namespace palermo {

PrOram::PrOram(const ProtocolConfig &config)
    : config_(config), rng_(mix64(config.seed) ^ 0x50524f52ull),
      filter_(config.llcResidentLines)
{
    palermo_assert(config.prefetchLen >= 1);
    const auto blocks = config.levelBlocks();
    Addr base = config.dramBase;
    for (unsigned level = 0; level < kHierLevels; ++level) {
        OramParams params =
            OramParams::path(blocks[level], config.pathZ);
        if (level == kLevelData && config.fatTree)
            applyFatTree(params);
        const unsigned cached =
            cachedLevelsFor(params, config.treetopBytes[level]);
        const std::size_t stash_cap = (level == kLevelData)
            ? config.prStashCapacity : config.stashCapacity;
        engines_[level] = std::make_unique<PathEngine>(
            params, base, cached, /*sibling_mode=*/false,
            mix64(config.seed + 307 * level), stash_cap);
        // Data-level defaults share a leaf per prefetch group — the
        // "consecutive addresses to the same leaf" mapping.
        const unsigned group =
            (level == kLevelData) ? config.prefetchLen : 1;
        posMaps_[level] = std::make_unique<PosMap>(
            blocks[level], params.numLeaves,
            mix64(config.seed + 733 * level), group);
        if (config.prefill && blocks[level] <= kPrefillLimit)
            prefillEngine(*engines_[level], *posMaps_[level]);
        base = engines_[level]->layout().endAddr();
    }
}

std::size_t
PrOram::dummyThreshold() const
{
    return engines_[kLevelData]->stash().capacity() * 3 / 4;
}

bool
PrOram::prefetchActive() const
{
    if (config_.prefetchLen <= 1)
        return false;
    if (!config_.throttle)
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
    // Prefetched lines are LLC-resident: the miss never reaches ORAM.
    if (config_.prefetchLen > 1 && filter_.hit(pa)) {
        RequestPlan hit = recycler_.acquire(0);
        hit.pa = pa;
        hit.write = write;
        hit.llcHit = true;
        PathEngine &data = *engines_[kLevelData];
        // The line's block may still be in the stash; keep its payload
        // coherent for functional checks.
        if (write && data.inStash(pa))
            data.setPayload(pa, value);
        ++prStats_.llcHits;
        out->push_back(std::move(hit));
        return;
    }

    PathEngine &data = *engines_[kLevelData];
    PosMap &pm0 = *posMaps_[kLevelData];

    // Background evictions: drain stash pressure with dummy requests
    // before admitting the real one.
    unsigned injected = 0;
    while (data.stash().occupancy() > dummyThreshold() && injected < 8) {
        RequestPlan dummy = recycler_.acquire(1);
        dummy.dummy = true;
        const Leaf random_leaf =
            rng_.range(data.params().numLeaves);
        LevelPlan &level_plan = dummy.levels[0];
        data.dummyAccessInto(random_leaf, &level_plan);
        level_plan.level = kLevelData;
        ++prStats_.dummyRequests;
        recordPlan(true);
        out->push_back(std::move(dummy));
        ++injected;
    }

    const bool grouped = prefetchActive();
    if (!grouped && config_.prefetchLen > 1)
        ++prStats_.throttledAccesses;

    RequestPlan plan = recycler_.acquire(kHierLevels);
    plan.pa = pa;
    plan.write = write;

    const auto ids = config_.decompose(pa);
    std::size_t slot = 0;
    for (unsigned level = kHierLevels; level-- > 1;) {
        PathEngine &engine = *engines_[level];
        PosMap &pm = *posMaps_[level];
        const BlockId block = ids[level];
        const Leaf leaf = pm.get(block);
        const Leaf new_leaf = rng_.range(engine.params().numLeaves);
        pm.set(block, new_leaf);
        LevelPlan &level_plan = plan.levels[slot++];
        engine.accessInto(block, leaf, new_leaf, &level_plan);
        level_plan.level = level;
    }

    // Data level with group semantics.
    const Leaf leaf = pm0.get(pa);
    const Leaf new_leaf = rng_.range(data.params().numLeaves);
    pm0.set(pa, new_leaf);

    LevelPlan &level_plan = plan.levels[slot];
    if (grouped) {
        // Prefetch: every group sibling still sharing this leaf (the
        // throttle may have ungrouped some) is co-remapped onto the new
        // shared leaf inside the engine access, then marked resident.
        membersScratch_.clear();
        const BlockId group_base =
            (pa / config_.prefetchLen) * config_.prefetchLen;
        for (unsigned i = 0; i < config_.prefetchLen; ++i) {
            const BlockId member = group_base + i;
            if (member >= config_.numBlocks || member == pa)
                continue;
            if (pm0.get(member) != leaf)
                continue;
            membersScratch_.push_back(member);
        }
        data.accessGroupInto(pa, membersScratch_, leaf, new_leaf,
                             &level_plan);
        for (BlockId member : membersScratch_) {
            pm0.set(member, new_leaf);
            filter_.insert(member);
        }
        filter_.insert(pa);
    } else {
        data.accessInto(pa, leaf, new_leaf, &level_plan);
    }
    level_plan.level = kLevelData;

    if (write)
        data.setPayload(pa, value);
    plan.value = data.payloadOf(pa);
    ++prStats_.realRequests;
    recordPlan(false);
    out->push_back(std::move(plan));
}

Stash &
PrOram::stashOf(unsigned level)
{
    palermo_assert(level < kHierLevels);
    return engines_[level]->stash();
}

bool
PrOram::checkBlockInvariant(BlockId pa) const
{
    return engines_[kLevelData]->satisfiesInvariant(
        pa, posMaps_[kLevelData]->get(pa));
}

namespace {

/**
 * Registry entry: PrORAM with Fat-Tree + throttle left to the caller (Fig. 10
 * setup); the only serial baseline that honors prefetchLen.
 */
ProtocolDescriptor
descriptor()
{
    ProtocolDescriptor d;
    d.kind = ProtocolKind::PrOram;
    d.displayName = "PrORAM";
    d.shortToken = "pr";
    d.aliases = {"proram"};
    d.barOrder = 3;
    d.supportsPrefetch = true;
    d.build = [](const SystemConfig &config) {
        return std::make_unique<SerialController>(
            std::make_unique<PrOram>(config.protocol),
            config.serialIssueWidth, 8, config.decryptLatency);
    };
    return d;
}

const ProtocolRegistrar registrar{descriptor()};

} // namespace

} // namespace palermo
