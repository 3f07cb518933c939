/**
 * @file
 * Three-level hierarchical PathORAM and PageORAM protocol driver; the
 * PathORAM form is the Fig. 10 normalization baseline.
 */

#include "oram/path_oram.hh"

namespace palermo {

namespace {

/** PathORAM's and PageORAM's seeds: RNG salt, engine/posmap strides. */
constexpr HierarchySeeds kPathSeeds{0x50415448ull, 211, 877};
constexpr HierarchySeeds kPageSeeds{0x50414745ull, 401, 691};

} // namespace

PathOram::PathOram(const ProtocolConfig &config, Variant variant)
    : hier_(config, variant == Variant::Page ? kPageSeeds : kPathSeeds,
            [&config, variant](unsigned, std::uint64_t blocks) {
                const unsigned z = variant == Variant::Page
                    ? config.pageZ : config.pathZ;
                return LevelShape{OramParams::path(blocks, z),
                                  config.stashCapacity};
            },
            [variant](const OramParams &params, Addr base,
                      unsigned cached, std::uint64_t seed,
                      std::size_t stash_capacity) {
                return std::make_unique<PathEngine>(
                    params, base, cached, variant == Variant::Page, seed,
                    stash_capacity);
            })
{
}

void
PathOram::accessInto(BlockId pa, bool write, std::uint64_t value,
                     std::vector<RequestPlan> *out)
{
    RequestPlan plan = recycler_.acquire(kHierLevels);
    hier_.accessInto(pa, write, value, &plan);
    out->push_back(std::move(plan));
}

} // namespace palermo
