/**
 * @file
 * Three-level hierarchical RingORAM protocol driver (paper
 * Algorithm 1 + §II-D recursion).
 */

#include "oram/ring_oram.hh"

#include "common/log.hh"
#include "controller/serial_controller.hh"
#include "sim/protocol_registry.hh"

namespace palermo {

RingOram::RingOram(const ProtocolConfig &config)
    : config_(config), rng_(mix64(config.seed) ^ 0x52494e47ull)
{
    const auto blocks = config.levelBlocks();
    Addr base = config.dramBase;
    for (unsigned level = 0; level < kHierLevels; ++level) {
        // The Data tree may use widened blocks under Palermo-style
        // prefetch; PosMap trees always use 64B blocks.
        const unsigned block_bytes = (level == kLevelData)
            ? kBlockBytes * config.prefetchLen : kBlockBytes;
        const std::uint64_t level_blocks = (level == kLevelData)
            ? std::max<std::uint64_t>(1, blocks[level] / config.prefetchLen)
            : blocks[level];
        OramParams params = OramParams::ring(
            level_blocks, config.ringZ, config.ringS, config.ringA,
            block_bytes);
        const unsigned cached =
            cachedLevelsFor(params, config.treetopBytes[level]);
        engines_[level] = std::make_unique<RingEngine>(
            params, base, ReshuffleMode::Post, cached,
            mix64(config.seed + 101 * level), config.stashCapacity);
        posMaps_[level] = std::make_unique<PosMap>(
            level_blocks, params.numLeaves,
            mix64(config.seed + 977 * level));
        if (config.prefill && level_blocks <= kPrefillLimit)
            prefillEngine(*engines_[level], *posMaps_[level]);
        base = engines_[level]->layout().endAddr();
    }
}

void
RingOram::accessInto(BlockId pa, bool write, std::uint64_t value,
                     std::vector<RequestPlan> *out)
{
    RequestPlan plan = recycler_.acquire(kHierLevels);
    plan.pa = pa;
    plan.write = write;

    auto ids = config_.decompose(pa);
    if (config_.prefetchLen > 1)
        ids[kLevelData] = pa / config_.prefetchLen;

    // Execution order: deepest PosMap first (Pos2, Pos1, Data).
    std::size_t slot = 0;
    for (unsigned level = kHierLevels; level-- > 0;) {
        RingEngine &engine = *engines_[level];
        PosMap &pm = *posMaps_[level];
        const BlockId block = ids[level];
        const Leaf leaf = pm.get(block);
        const Leaf new_leaf = rng_.range(engine.params().numLeaves);
        pm.set(block, new_leaf);
        LevelPlan &level_plan = plan.levels[slot++];
        engine.accessInto(block, leaf, new_leaf, &level_plan);
        level_plan.level = level;
    }

    RingEngine &data = *engines_[kLevelData];
    if (write)
        data.setPayload(ids[kLevelData], value);
    plan.value = data.payloadOf(ids[kLevelData]);

    out->push_back(std::move(plan));
}

Stash &
RingOram::stashOf(unsigned level)
{
    palermo_assert(level < kHierLevels);
    return engines_[level]->stash();
}

bool
RingOram::checkBlockInvariant(BlockId pa) const
{
    BlockId block = pa;
    if (config_.prefetchLen > 1)
        block = pa / config_.prefetchLen;
    return engines_[kLevelData]->satisfiesInvariant(
        block, posMaps_[kLevelData]->get(block));
}

namespace {

/**
 * Registry entry: RingORAM under the serial baseline controller.
 */
ProtocolDescriptor
descriptor()
{
    ProtocolDescriptor d;
    d.kind = ProtocolKind::RingOram;
    d.displayName = "RingORAM";
    d.shortToken = "ring";
    d.aliases = {"ringoram"};
    d.barOrder = 1;
    d.build = [](const SystemConfig &config) {
        return std::make_unique<SerialController>(
            std::make_unique<RingOram>(config.protocol),
            config.serialIssueWidth, 8, config.decryptLatency);
    };
    return d;
}

const ProtocolRegistrar registrar{descriptor()};

} // namespace

} // namespace palermo
