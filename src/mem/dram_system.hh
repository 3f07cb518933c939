/**
 * @file
 * Multi-channel DRAM system facade: routes requests to channels via the
 * address map, advances all channels per tick, aggregates statistics, and
 * hands read completions back to the ORAM controller.
 *
 * Visible horizon. A parked controller sees the DRAM only through the
 * completions it is handed and the dataBusActive() it classifies each
 * cycle by. visibleHorizon() bounds the first tick at which either can
 * show something not already scheduled: a completion already produced
 * falls due, or a CAS not yet issued puts a beat on a bus (a read CAS
 * completes later still, at + tCL + tBL). Before it, busyTicksIn()
 * reads the bus state off the beats already scheduled, and
 * tickWindow() advances the channels in one call.
 */

#ifndef PALERMO_MEM_DRAM_SYSTEM_HH
#define PALERMO_MEM_DRAM_SYSTEM_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/channel.hh"
#include "mem/dram_timing.hh"

namespace palermo {

/** Construction parameters for the outsourced DRAM (Table III). */
struct DramConfig
{
    DramOrg org;
    DramTiming timing = ddr4_3200();
    MapPolicy policy = MapPolicy::RoBaRaCoCh;
    unsigned queueDepth = 64;
};

/** Aggregated system-level DRAM statistics snapshot. */
struct DramSnapshot
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t forwardedReads = 0;
    std::uint64_t busBusyTicks = 0;
    std::uint64_t totalTicks = 0;
    double avgQueueOccupancy = 0.0;
    double avgReadLatency = 0.0;

    /** Fraction of classified column accesses that were row hits. */
    double rowHitRate() const;
    /** Fraction that were row-buffer conflicts. */
    double rowConflictRate() const;
    /** Data-bus utilization in [0, 1], averaged over channels. */
    double busUtilization() const;
};

/** The untrusted outsourced memory: N channels of DDR4. */
class DramSystem
{
  public:
    explicit DramSystem(const DramConfig &config);

    /**
     * Enqueue one 64B request. Tags identify completions for reads.
     * @return false when the channel queue is full.
     */
    bool enqueue(Addr addr, bool is_write, std::uint64_t tag);

    /** Advance one cycle across all channels. */
    void tick();

    /**
     * Advance `cycles` cycles in one call. Precondition: nothing is
     * enqueued and nothing is drained inside the window. Channels then
     * stay independent through it, so each advances through the whole
     * window on its own; reads may be queued, and their completions
     * wait in the channel outboxes for the next drainCompletions().
     * @return Sum over the window of post-tick occupancy() across all
     *         channels (exact: integer addends), so the caller can
     *         keep its time-weighted occupancy bit-identical to the
     *         per-cycle path.
     */
    std::uint64_t tickWindow(std::uint64_t cycles);

    /**
     * Old two-argument form, kept only because
     * benchmark/palermo_bench.cc still calls it (ROADMAP item 4 drops
     * it together with that call).
     */
    std::uint64_t tickWindow(std::nullptr_t, std::uint64_t cycles)
    {
        return tickWindow(cycles);
    }

    /**
     * First tick at which the DRAM can show a parked controller
     * anything not yet scheduled, if nothing is enqueued from `next`
     * (the next tick to run) on: the minimum of the earliest finish
     * tick among pending and undrained completions and, over the
     * channels, the command bound plus min(tCL, tCWL), the first tick
     * a new CAS could put a beat on a bus.
     */
    Tick visibleHorizon(Tick next) const;

    /**
     * Ticks in [from, to) that the channels' scheduled beats cover,
     * counted once however many channels are busy: the number of
     * ticks in the range after which dataBusActive() holds, as long
     * as no CAS issued from now on has a beat inside it.
     */
    std::uint64_t busyTicksIn(Tick from, Tick to) const;

    /**
     * True when no read is queued in any channel and no completion is
     * pending delivery (channel outboxes and the internal pending list
     * are empty). Writes may still be draining; they produce no
     * event an idle controller can see, so with this and an idle
     * controller the session defers without a DRAM bound.
     */
    bool readQuiescent() const;

    /** Current tick. */
    Tick now() const { return now_; }

    /**
     * Collect read completions that became visible by the current tick,
     * in finish order. The internal buffers are drained; the returned
     * reference is valid until the next drain.
     */
    const std::vector<Completion> &drainCompletions();

    /** True if any channel moved data during the last tick. */
    bool dataBusActive() const;

    /** Current total queued requests across channels. */
    std::size_t occupancy() const;

    /** Zero all statistics (warmup boundary); state is preserved. */
    void resetStats();

    /** Aggregate statistics across channels. */
    DramSnapshot snapshot() const;

    const DramConfig &config() const { return config_; }

  private:
    DramConfig config_;
    AddressMap map_;
    std::vector<std::unique_ptr<Channel>> channels_;
    Tick now_ = 0;
    std::vector<Completion> ready_;
    std::vector<Completion> pending_;
    Tick nextDue_ = kInvalid; ///< Earliest finishTick in pending_.
};

} // namespace palermo

#endif // PALERMO_MEM_DRAM_SYSTEM_HH
