/**
 * @file
 * IR-ORAM path-access-type classification and the resulting
 * reduced-intensity plans (Raoufi et al., HPCA'22).
 */

#include "oram/ir_oram.hh"

namespace palermo {

IrOram::IrOram(const ProtocolConfig &config)
    : hier_(config, {0x49524f52ull, 503, 599},
            [&config](unsigned level, std::uint64_t blocks) {
                OramParams params = OramParams::path(blocks, config.pathZ);
                if (level == kLevelData)
                    applyIrTreeShrink(params);
                return LevelShape{params, config.stashCapacity};
            },
            [](const OramParams &params, Addr base, unsigned cached,
               std::uint64_t seed, std::size_t stash_capacity) {
                return std::make_unique<PathEngine>(
                    params, base, cached, /*sibling_mode=*/false, seed,
                    stash_capacity);
            }),
      table_(kTableEntries)
{
}

bool
IrOram::residentOnChip(BlockId pa) const
{
    const PathEngine &data = hier_.engine(kLevelData);
    if (data.inStash(pa))
        return true;
    // Check whether the block sits in a tree-top-cached bucket of its
    // current path (exact residency, as tracked by IR-ORAM's hardware).
    const Leaf leaf = hier_.posMap(kLevelData).get(pa);
    for (unsigned level = 0; level < data.cachedLevels(); ++level) {
        const auto meta =
            data.tree().peek(data.params().ancestorOfLeaf(leaf, level));
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

    RequestPlan plan = recycler_.acquire(bypass ? 1 : kHierLevels);
    plan.pa = pa;
    plan.write = write;
    if (bypass)
        ++irStats_.posmapBypasses;
    else
        hier_.remapPosMapsInto(pa, &plan);
    hier_.remapInto(kLevelData, pa, &plan.levels.back());

    table_.insert(pa);
    plan.value = hier_.serve(pa, write, value);
    out->push_back(std::move(plan));
}

} // namespace palermo
