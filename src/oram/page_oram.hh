/**
 * @file
 * PageOram: DRAM-page-aware PathORAM (Rajat et al., MICRO'22).
 *
 * PageORAM extends each block's residence set with the siblings of its
 * path buckets. Siblings are heap-adjacent, so the extra reads land in
 * already-open DRAM rows, and the added placement freedom lets bucket
 * size shrink (pageZ < pathZ), cutting per-access traffic.
 */

#ifndef PALERMO_ORAM_PAGE_ORAM_HH
#define PALERMO_ORAM_PAGE_ORAM_HH

#include <array>
#include <memory>

#include "common/rng.hh"
#include "oram/hierarchy.hh"
#include "oram/path_engine.hh"
#include "oram/posmap.hh"

namespace palermo {

/** Hierarchical PageORAM. */
class PageOram : public Protocol
{
  public:
    explicit PageOram(const ProtocolConfig &config);

    void accessInto(BlockId pa, bool write, std::uint64_t value,
                    std::vector<RequestPlan> *out) override;

    Stash &stashOf(unsigned level) override;
    std::uint64_t dataLeaves() const override
    {
        return engines_[kLevelData]->params().numLeaves;
    }

    PathEngine &engine(unsigned level) { return *engines_[level]; }
    bool checkBlockInvariant(BlockId pa) const;

  private:
    ProtocolConfig config_;
    Rng rng_;
    std::array<std::unique_ptr<PathEngine>, kHierLevels> engines_;
    std::array<std::unique_ptr<PosMap>, kHierLevels> posMaps_;
};

} // namespace palermo

#endif // PALERMO_ORAM_PAGE_ORAM_HH
