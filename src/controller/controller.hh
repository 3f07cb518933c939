/**
 * @file
 * Timing-controller interface: the component that converts admitted LLC
 * misses into DRAM traffic under a protocol's dependency rules.
 *
 * Spans. A controller is parked when its tick() can change nothing but
 * its cycle counters until a DRAM completion or a push() arrives:
 * every cycle it counts one total cycle and, with a request in
 * flight, one DRAM or ORAM-sync cycle by dataBusActive(). While
 * parked or idle, nextEventAt() reads kTickNever, and the session
 * defers the cycles and settles them with one tickSpan() call. The
 * non-virtual tickIdle() is the idle case of tickSpan().
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
     * Earliest tick at which tick() could change anything but the
     * cycle counters, as far as the controller alone can tell: `now`
     * while it can act, kTickNever while it is idle or parked. Parked
     * means waiting on an event the session delivers: a DRAM
     * completion (onCompletion) or a new request (push).
     */
    virtual Tick nextEventAt(Tick now) const = 0;

    /**
     * Account `cycles` consecutive tick() calls in one step, exactly
     * as they would count them. Legal only while nextEventAt() is
     * kTickNever and no completion or push arrives inside the span;
     * `busy` of the cycles saw dataBusActive(). Touches no DRAM state.
     */
    virtual void tickSpan(std::uint64_t cycles, std::uint64_t busy) = 0;

    /**
     * tickSpan(cycles, 0) for an idle controller (it reads no bus).
     * Always true: idle accounting is exact for every controller.
     */
    bool tickIdle(std::uint64_t cycles)
    {
        tickSpan(cycles, 0);
        return true;
    }

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
