/**
 * @file
 * PrOram: the prefetching PathORAM family (PrORAM [50] and LAORAM [39]).
 *
 * PrORAM forces consecutive physical addresses onto the same ORAM leaf so
 * one path access prefetches a whole group into the LLC; subsequent
 * misses on resident lines bypass the protocol. The cost (paper §III-B)
 * is stash pressure: after each access a whole group must re-enter the
 * tree along a single fresh path, so when the stash exceeds a threshold
 * the protocol inserts dummy background-eviction requests. A dynamic
 * throttle disables grouping when the recent dummy ratio is high.
 * LAORAM's Fat-Tree variant widens buckets near the root to relieve the
 * pressure.
 */

#ifndef PALERMO_ORAM_PR_ORAM_HH
#define PALERMO_ORAM_PR_ORAM_HH

#include <deque>

#include "oram/hierarchy.hh"
#include "oram/path_engine.hh"

namespace palermo {

/** PrORAM running statistics (Fig. 4 inputs). */
struct PrOramStats
{
    std::uint64_t realRequests = 0;
    std::uint64_t dummyRequests = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t throttledAccesses = 0;

    double dummyRatio() const
    {
        const auto total = realRequests + dummyRequests;
        return total ? static_cast<double>(dummyRequests) / total : 0.0;
    }
};

/** Prefetching PathORAM (PrORAM; LAORAM with config.fatTree). */
class PrOram : public Protocol
{
  public:
    explicit PrOram(const ProtocolConfig &config);

    void accessInto(BlockId pa, bool write, std::uint64_t value,
                    std::vector<RequestPlan> *out) override;

    Stash &stashOf(unsigned level) override { return hier_.stash(level); }
    std::uint64_t dataLeaves() const override { return hier_.dataLeaves(); }

    const PrOramStats &prStats() const { return prStats_; }
    const Hierarchy<PathEngine> &hierarchy() const { return hier_; }

    bool
    checkBlockInvariant(BlockId pa) const
    {
        return hier_.dataInvariantHolds(pa);
    }

  private:
    /** Stash level above which dummy evictions are injected. */
    std::size_t dummyThreshold() const;

    /** Consult the throttle window; true if grouping is active. */
    bool prefetchActive() const;
    void recordPlan(bool dummy);

    Hierarchy<PathEngine> hier_;
    PrefetchFilter filter_;
    std::deque<bool> window_; ///< Recent plans: true = dummy.
    std::vector<BlockId> membersScratch_; ///< Group-sibling staging.
    PrOramStats prStats_;
};

} // namespace palermo

#endif // PALERMO_ORAM_PR_ORAM_HH
