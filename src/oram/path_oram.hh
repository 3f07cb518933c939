/**
 * @file
 * PathOram: the classical three-level hierarchical PathORAM protocol
 * (Stefanov et al.), the normalization baseline of every Fig. 10 bar.
 */

#ifndef PALERMO_ORAM_PATH_ORAM_HH
#define PALERMO_ORAM_PATH_ORAM_HH

#include <array>
#include <memory>

#include "common/rng.hh"
#include "oram/hierarchy.hh"
#include "oram/path_engine.hh"
#include "oram/posmap.hh"

namespace palermo {

/** Hierarchical PathORAM (baseline). */
class PathOram : public Protocol
{
  public:
    explicit PathOram(const ProtocolConfig &config);

    void accessInto(BlockId pa, bool write, std::uint64_t value,
                    std::vector<RequestPlan> *out) override;

    Stash &stashOf(unsigned level) override;
    std::uint64_t dataLeaves() const override
    {
        return engines_[kLevelData]->params().numLeaves;
    }

    const PosMap &posMap(unsigned level) const { return *posMaps_[level]; }

    bool checkBlockInvariant(BlockId pa) const;

  private:
    ProtocolConfig config_;
    Rng rng_;
    std::array<std::unique_ptr<PathEngine>, kHierLevels> engines_;
    std::array<std::unique_ptr<PosMap>, kHierLevels> posMaps_;
};

} // namespace palermo

#endif // PALERMO_ORAM_PATH_ORAM_HH
