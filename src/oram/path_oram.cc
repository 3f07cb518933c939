/**
 * @file
 * Three-level hierarchical PathORAM protocol driver, the Fig. 10
 * normalization baseline.
 */

#include "oram/path_oram.hh"

#include "common/log.hh"
#include "controller/serial_controller.hh"
#include "sim/protocol_registry.hh"

namespace palermo {

PathOram::PathOram(const ProtocolConfig &config)
    : config_(config), rng_(mix64(config.seed) ^ 0x50415448ull)
{
    const auto blocks = config.levelBlocks();
    Addr base = config.dramBase;
    for (unsigned level = 0; level < kHierLevels; ++level) {
        OramParams params =
            OramParams::path(blocks[level], config.pathZ);
        const unsigned cached =
            cachedLevelsFor(params, config.treetopBytes[level]);
        engines_[level] = std::make_unique<PathEngine>(
            params, base, cached, /*sibling_mode=*/false,
            mix64(config.seed + 211 * level), config.stashCapacity);
        posMaps_[level] = std::make_unique<PosMap>(
            blocks[level], params.numLeaves,
            mix64(config.seed + 877 * level));
        if (config.prefill && blocks[level] <= kPrefillLimit)
            prefillEngine(*engines_[level], *posMaps_[level]);
        base = engines_[level]->layout().endAddr();
    }
}

void
PathOram::accessInto(BlockId pa, bool write, std::uint64_t value,
                     std::vector<RequestPlan> *out)
{
    RequestPlan plan = recycler_.acquire(kHierLevels);
    plan.pa = pa;
    plan.write = write;

    const auto ids = config_.decompose(pa);
    std::size_t slot = 0;
    for (unsigned level = kHierLevels; level-- > 0;) {
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

    PathEngine &data = *engines_[kLevelData];
    if (write)
        data.setPayload(ids[kLevelData], value);
    plan.value = data.payloadOf(ids[kLevelData]);

    out->push_back(std::move(plan));
}

Stash &
PathOram::stashOf(unsigned level)
{
    palermo_assert(level < kHierLevels);
    return engines_[level]->stash();
}

bool
PathOram::checkBlockInvariant(BlockId pa) const
{
    return engines_[kLevelData]->satisfiesInvariant(
        pa, posMaps_[kLevelData]->get(pa));
}

namespace {

/**
 * Registry entry: PathORAM is Fig. 10's normalization baseline.
 */
ProtocolDescriptor
descriptor()
{
    ProtocolDescriptor d;
    d.kind = ProtocolKind::PathOram;
    d.displayName = "PathORAM";
    d.shortToken = "path";
    d.aliases = {"pathoram"};
    d.barOrder = 0;
    d.build = [](const SystemConfig &config) {
        return std::make_unique<SerialController>(
            std::make_unique<PathOram>(config.protocol),
            config.serialIssueWidth, 8, config.decryptLatency);
    };
    return d;
}

const ProtocolRegistrar registrar{descriptor()};

} // namespace

} // namespace palermo
