/**
 * @file
 * IR-ORAM path-access-type classification and the resulting
 * reduced-intensity plans (Raoufi et al., HPCA'22).
 */

#include "oram/ir_oram.hh"

#include "common/log.hh"
#include "controller/serial_controller.hh"
#include "sim/protocol_registry.hh"

namespace palermo {

IrOram::IrOram(const ProtocolConfig &config)
    : config_(config), rng_(mix64(config.seed) ^ 0x49524f52ull),
      table_(config.irTableEntries)
{
    const auto blocks = config.levelBlocks();
    Addr base = config.dramBase;
    for (unsigned level = 0; level < kHierLevels; ++level) {
        OramParams params =
            OramParams::path(blocks[level], config.pathZ);
        if (level == kLevelData)
            applyIrTreeShrink(params);
        const unsigned cached =
            cachedLevelsFor(params, config.treetopBytes[level]);
        engines_[level] = std::make_unique<PathEngine>(
            params, base, cached, /*sibling_mode=*/false,
            mix64(config.seed + 503 * level), config.stashCapacity);
        posMaps_[level] = std::make_unique<PosMap>(
            blocks[level], params.numLeaves,
            mix64(config.seed + 599 * level));
        if (config.prefill && blocks[level] <= kPrefillLimit)
            prefillEngine(*engines_[level], *posMaps_[level]);
        base = engines_[level]->layout().endAddr();
    }
}

bool
IrOram::residentOnChip(BlockId pa) const
{
    const PathEngine &data = *engines_[kLevelData];
    if (data.inStash(pa))
        return true;
    // Check whether the block sits in a tree-top-cached bucket of its
    // current path (exact residency, as tracked by IR-ORAM's hardware).
    const Leaf leaf = posMaps_[kLevelData]->get(pa);
    const OramParams &params = data.params();
    const std::vector<NodeId> path = params.pathNodes(leaf);
    for (NodeId node : path) {
        if (params.levelOf(node) >= data.cachedLevels())
            break;
        const auto meta = data.tree().peek(node);
        if (meta && meta.slotOf(pa) >= 0)
            return true;
    }
    return false;
}

void
IrOram::accessInto(BlockId pa, bool write, std::uint64_t value,
                   std::vector<RequestPlan> *out)
{
    ++irStats_.accesses;

    // PosMap bypass: if the tracked table covers this PA and the block
    // verifiably lives on-chip, the leaf is known without touching the
    // recursive PosMap ORAMs.
    const bool bypass = table_.hit(pa) && residentOnChip(pa);
    const auto ids = config_.decompose(pa);

    RequestPlan plan = recycler_.acquire(bypass ? 1 : kHierLevels);
    plan.pa = pa;
    plan.write = write;

    std::size_t slot = 0;
    if (!bypass) {
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
    } else {
        ++irStats_.posmapBypasses;
    }

    PathEngine &data = *engines_[kLevelData];
    PosMap &pm0 = *posMaps_[kLevelData];
    const Leaf leaf = pm0.get(pa);
    const Leaf new_leaf = rng_.range(data.params().numLeaves);
    pm0.set(pa, new_leaf);
    LevelPlan &level_plan = plan.levels[slot];
    data.accessInto(pa, leaf, new_leaf, &level_plan);
    level_plan.level = kLevelData;

    table_.insert(pa);

    if (write)
        data.setPayload(pa, value);
    plan.value = data.payloadOf(pa);

    out->push_back(std::move(plan));
}

Stash &
IrOram::stashOf(unsigned level)
{
    palermo_assert(level < kHierLevels);
    return engines_[level]->stash();
}

bool
IrOram::checkBlockInvariant(BlockId pa) const
{
    return engines_[kLevelData]->satisfiesInvariant(
        pa, posMaps_[kLevelData]->get(pa));
}

namespace {

/**
 * Registry entry: IR-ORAM's tree-shrink + bypass-table design.
 */
ProtocolDescriptor
descriptor()
{
    ProtocolDescriptor d;
    d.kind = ProtocolKind::IrOram;
    d.displayName = "IR-ORAM";
    d.shortToken = "ir";
    d.aliases = {"iroram"};
    d.barOrder = 4;
    d.build = [](const SystemConfig &config) {
        return std::make_unique<SerialController>(
            std::make_unique<IrOram>(config.protocol),
            config.serialIssueWidth, 8, config.decryptLatency);
    };
    return d;
}

const ProtocolRegistrar registrar{descriptor()};

} // namespace

} // namespace palermo
