/**
 * @file
 * IrOram: IR-ORAM (Raoufi et al., HPCA'22) — path-access-type-based
 * memory intensity reduction for PathORAM.
 *
 * Two mechanisms from the paper: (1) a hardware table tracks the PosMap
 * mappings of blocks currently resident on-chip (stash or tree-top
 * cache); hits bypass the recursive PosMap ORAM accesses entirely.
 * (2) buckets in the middle band of the tree shrink, cutting per-access
 * traffic.
 */

#ifndef PALERMO_ORAM_IR_ORAM_HH
#define PALERMO_ORAM_IR_ORAM_HH

#include "oram/hierarchy.hh"
#include "oram/path_engine.hh"

namespace palermo {

/** IR-ORAM running statistics. */
struct IrOramStats
{
    std::uint64_t accesses = 0;
    std::uint64_t posmapBypasses = 0;

    double bypassRate() const
    {
        return accesses
            ? static_cast<double>(posmapBypasses) / accesses : 0.0;
    }
};

/** Hierarchical IR-ORAM. */
class IrOram : public Protocol
{
  public:
    explicit IrOram(const ProtocolConfig &config);

    void accessInto(BlockId pa, bool write, std::uint64_t value,
                    std::vector<RequestPlan> *out) override;

    Stash &stashOf(unsigned level) override { return hier_.stash(level); }
    std::uint64_t dataLeaves() const override { return hier_.dataLeaves(); }

    const IrOramStats &irStats() const { return irStats_; }
    const Hierarchy<PathEngine> &hierarchy() const { return hier_; }

    bool
    checkBlockInvariant(BlockId pa) const
    {
        return hier_.dataInvariantHolds(pa);
    }

  private:
    /** Entries of the hardware table of tracked PosMap mappings. */
    static constexpr std::size_t kTableEntries = 4096;

    /** True if the block verifiably resides on-chip right now. */
    bool residentOnChip(BlockId pa) const;

    Hierarchy<PathEngine> hier_;
    PrefetchFilter table_; ///< Bounded recency table of tracked PAs.
    IrOramStats irStats_;
};

} // namespace palermo

#endif // PALERMO_ORAM_IR_ORAM_HH
