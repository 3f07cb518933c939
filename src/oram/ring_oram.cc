/**
 * @file
 * Three-level hierarchical RingORAM protocol driver (paper
 * Algorithm 1 + §II-D recursion).
 */

#include "oram/ring_oram.hh"

namespace palermo {

RingOram::RingOram(const ProtocolConfig &config)
    : hier_(config, {0x52494e47ull, 101, 977},
            [&config](unsigned, std::uint64_t blocks) {
                return LevelShape{
                    OramParams::ring(blocks, config.ringZ, config.ringS,
                                     config.ringA),
                    config.stashCapacity};
            },
            [](const OramParams &params, Addr base, unsigned cached,
               std::uint64_t seed, std::size_t stash_capacity) {
                return std::make_unique<RingEngine>(
                    params, base, ReshuffleMode::Post, cached, seed,
                    stash_capacity);
            })
{
}

void
RingOram::accessInto(BlockId pa, bool write, std::uint64_t value,
                     std::vector<RequestPlan> *out)
{
    RequestPlan plan = recycler_.acquire(kHierLevels);
    hier_.accessInto(pa, write, value, &plan);
    out->push_back(std::move(plan));
}

} // namespace palermo
