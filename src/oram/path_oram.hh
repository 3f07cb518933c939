/**
 * @file
 * PathOram: the classical three-level hierarchical PathORAM protocol
 * (Stefanov et al.), the normalization baseline of every Fig. 10 bar,
 * and its PageORAM variant.
 *
 * PageORAM (Rajat et al., MICRO'22) extends each block's residence set
 * with the siblings of its path buckets. Siblings are heap-adjacent, so
 * the extra reads land in already-open DRAM rows, and the added
 * placement freedom lets bucket size shrink (pageZ < pathZ), cutting
 * per-access traffic.
 */

#ifndef PALERMO_ORAM_PATH_ORAM_HH
#define PALERMO_ORAM_PATH_ORAM_HH

#include "oram/hierarchy.hh"
#include "oram/path_engine.hh"

namespace palermo {

/** Hierarchical PathORAM (baseline) or PageORAM. */
class PathOram : public Protocol
{
  public:
    /** Bucket size, residence set and seeds of the tree family. */
    enum class Variant
    {
        Path, ///< pathZ-slot buckets; a block lives on its path.
        Page, ///< pageZ-slot buckets; path buckets and their siblings.
    };

    explicit PathOram(const ProtocolConfig &config,
                      Variant variant = Variant::Path);

    void accessInto(BlockId pa, bool write, std::uint64_t value,
                    std::vector<RequestPlan> *out) override;

    Stash &stashOf(unsigned level) override { return hier_.stash(level); }
    std::uint64_t dataLeaves() const override { return hier_.dataLeaves(); }

    const Hierarchy<PathEngine> &hierarchy() const { return hier_; }

    bool
    checkBlockInvariant(BlockId pa) const
    {
        return hier_.dataInvariantHolds(pa);
    }

  private:
    Hierarchy<PathEngine> hier_;
};

} // namespace palermo

#endif // PALERMO_ORAM_PATH_ORAM_HH
