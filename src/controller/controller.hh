/**
 * @file
 * Timing-controller interface: the component that converts admitted LLC
 * misses into DRAM traffic under a protocol's dependency rules.
 */

#ifndef PALERMO_CONTROLLER_CONTROLLER_HH
#define PALERMO_CONTROLLER_CONTROLLER_HH

#include <cstdint>

#include "common/types.hh"
#include "controller/controller_stats.hh"
#include "mem/dram_system.hh"
#include "oram/stash.hh"

namespace palermo {

/** Abstract ORAM timing controller. */
class Controller
{
  public:
    virtual ~Controller() = default;

    /** True if a new LLC miss can be admitted this cycle. */
    virtual bool canAccept() const = 0;

    /**
     * Admit one LLC miss (or a security-padding dummy).
     * @param pa Protected-space line.
     * @param write Store miss.
     * @param value Store payload.
     * @param dummy Request padding issued when the LLC is quiet.
     */
    virtual void push(BlockId pa, bool write, std::uint64_t value,
                      bool dummy) = 0;

    /** Advance one cycle; may enqueue DRAM requests. */
    virtual void tick(DramSystem &dram) = 0;

    /**
     * Batched idle advancement: account for `cycles` consecutive idle
     * cycles in one call, exactly as `cycles` tick() calls would while
     * idle() holds, touching no DRAM state. Callers may only invoke
     * this when idle() is true. Returns false when the controller
     * cannot prove its idle tick is pure accounting (the caller must
     * fall back to per-cycle tick()).
     */
    virtual bool tickIdle(std::uint64_t cycles) = 0;

    /** A DRAM read completed (tag issued by this controller). */
    virtual void onCompletion(std::uint64_t tag) = 0;

    /** True when no request is in flight. */
    virtual bool idle() const = 0;

    ControllerStats &stats() { return stats_; }
    const ControllerStats &stats() const { return stats_; }

    /** Data/Pos1/Pos2 stash view for occupancy studies. */
    virtual const Stash &stashOf(unsigned level) const = 0;

    /**
     * Mutable stash access, so samplers can reset the watermark window
     * between observations without const_cast games.
     */
    virtual Stash &stashOf(unsigned level) = 0;

  protected:
    ControllerStats stats_;
};

} // namespace palermo

#endif // PALERMO_CONTROLLER_CONTROLLER_HH
