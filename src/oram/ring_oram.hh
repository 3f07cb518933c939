/**
 * @file
 * RingOram: the baseline three-level hierarchical RingORAM protocol
 * (paper Algorithm 1 + §II-D recursion), serving one request at a time.
 */

#ifndef PALERMO_ORAM_RING_ORAM_HH
#define PALERMO_ORAM_RING_ORAM_HH

#include <array>
#include <memory>

#include "common/rng.hh"
#include "oram/hierarchy.hh"
#include "oram/level_engine.hh"
#include "oram/posmap.hh"

namespace palermo {

/** Hierarchical RingORAM (baseline). */
class RingOram : public Protocol
{
  public:
    explicit RingOram(const ProtocolConfig &config);

    void accessInto(BlockId pa, bool write, std::uint64_t value,
                    std::vector<RequestPlan> *out) override;

    Stash &stashOf(unsigned level) override;
    std::uint64_t dataLeaves() const override
    {
        return engines_[kLevelData]->params().numLeaves;
    }

    RingEngine &engine(unsigned level) { return *engines_[level]; }
    const PosMap &posMap(unsigned level) const { return *posMaps_[level]; }

    /** Invariant check for one data block (tests). */
    bool checkBlockInvariant(BlockId pa) const;

  private:
    ProtocolConfig config_;
    Rng rng_;
    std::array<std::unique_ptr<RingEngine>, kHierLevels> engines_;
    std::array<std::unique_ptr<PosMap>, kHierLevels> posMaps_;
};

} // namespace palermo

#endif // PALERMO_ORAM_RING_ORAM_HH
