/**
 * @file
 * RingOram: the baseline three-level hierarchical RingORAM protocol
 * (paper Algorithm 1 + §II-D recursion), serving one request at a time.
 */

#ifndef PALERMO_ORAM_RING_ORAM_HH
#define PALERMO_ORAM_RING_ORAM_HH

#include "oram/hierarchy.hh"
#include "oram/level_engine.hh"

namespace palermo {

/** Hierarchical RingORAM (baseline). */
class RingOram : public Protocol
{
  public:
    explicit RingOram(const ProtocolConfig &config);

    void accessInto(BlockId pa, bool write, std::uint64_t value,
                    std::vector<RequestPlan> *out) override;

    Stash &stashOf(unsigned level) override { return hier_.stash(level); }
    std::uint64_t dataLeaves() const override { return hier_.dataLeaves(); }

    const Hierarchy<RingEngine> &hierarchy() const { return hier_; }

    /** Invariant check for one data block (tests). */
    bool
    checkBlockInvariant(BlockId pa) const
    {
        return hier_.dataInvariantHolds(pa);
    }

  private:
    Hierarchy<RingEngine> hier_;
};

} // namespace palermo

#endif // PALERMO_ORAM_RING_ORAM_HH
