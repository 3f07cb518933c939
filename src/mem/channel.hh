/**
 * @file
 * Per-channel DRAM controller: FR-FCFS scheduling over split read/write
 * queues, write-drain hysteresis, write-to-read forwarding, bank timing,
 * tRRD/tFAW activate windows, CAS-to-CAS gating, and all-bank refresh.
 *
 * Bank-major FR-FCFS. Every gate on a command depends on its entry only
 * through the entry's flat bank: the bank's own timing, its bank group
 * (tCCD_L, tWTR_L, tRRD_L) and whether its open row is still wanted.
 * So the first entry in queue order that can issue is the first entry
 * in queue order whose bank is ready, and each scan first evaluates the
 * banks in a 64-bit mask, then walks the queue only when some bank is
 * ready:
 *
 *  - tryColumn(q): banks in hitMask_[q], those where queue q holds an
 *    entry on the open row;
 *  - tryActivate(q): banks in wantMask_[q] that are closed;
 *  - tryPrecharge(q): open banks that some queue wants and whose open
 *    row no queue wants. Whether such a bank may be closed does not
 *    depend on the queue, so one sweep serves both queues: when no
 *    bank is ready it memoizes the earliest deadline in preRetryAt_,
 *    shared by both queues, and when only the other queue wants a
 *    ready bank it asks for a scan on the next tick.
 *
 * The masks mirror per-(queue, bank) counts: bankWant_ (queued
 * entries) and openRowWant_ (entries on the bank's open row), which an
 * ACT re-derives with one rowWant_ probe per queue. A channel has at
 * most 64 banks, one mask bit each.
 *
 * Event-driven scheduling. The channel keeps a wake tick, `wakeAt_`: a
 * lower bound on the earliest tick at which any ACT, PRE or CAS could
 * issue. Ticks before it run only the O(1) accounting, data-bus
 * retirement, the refresh check and the write-drain hysteresis; the
 * FR-FCFS scans run from the wake tick on. The bound holds because:
 *
 *  - A tick that issues nothing sets it to the minimum of the bounds its
 *    own tryColumn/tryActivate/tryPrecharge scans computed (per-bank
 *    ready ticks, the hoisted tCCD/bus/tRRD_S/tFAW gates, the scan
 *    memos). Between tracked events, timing gates only move later.
 *  - Whether a tick issues anything does not depend on the write-drain
 *    mode: when the first queue fails the second is tried, and the
 *    mode only picks the order.
 *  - Every command and every closeRow (refresh included) clears it.
 *  - enqueue() merges only the new entry's own bound. Adding an entry
 *    only adds FR-FCFS row wants, and a row want can block a precharge
 *    but never unblocks another entry, so only the new entry can make
 *    something issue earlier.
 *
 * tickWindow() jumps event to event: up to the next wake tick, refresh
 * or data-bus edge, it accounts a whole span in one step. Within such a
 * span nothing enqueues or dequeues, so occupancy is constant, and the
 * bus state is constant by construction. The occupancy integral is a
 * sum of integers in a double, so one accumulate(occupancy, k) is
 * bit-identical to k single ones. Spans are taken only when
 * re-evaluating the hysteresis leaves the mode unchanged (with an empty
 * read queue and 0 < writes <= drainLow_ it flips every tick, and those
 * ticks run one by one).
 *
 * Command bound. Until the next enqueue, no command issues before
 * nextCommandAt(next) = max(next, min(wakeAt_, nextRefresh_)), or
 * `next` itself while a refresh is pending: the refresh term is there
 * because a refresh closes rows and clears the wake tick. No CAS, so
 * no new data beat and no new read completion, comes earlier; the
 * session builds its event horizon from this bound.
 *
 * Queues are contiguous vectors reserved to queueDepth at construction;
 * enqueue() never lets one grow past it, so they never reallocate. Data
 * beats are tracked as a FIFO of [start, end) intervals in issue order:
 * a CAS needs its burst to start at or after busFreeAt_, so beats never
 * overlap and at most one is active per tick.
 *
 * Thread ownership (channel-sharded parallel stepping): every mutable
 * member of Channel — banks_, both queues, rowWant_, the per-(queue,
 * bank) counts and the bank masks, the class counters, completions_,
 * the beat FIFO, refresh/drain state, the wake tick and scan memos,
 * stats_, and the pool resource backing the tFAW window and the beat
 * FIFO — is owned exclusively by this channel.
 * Channels never read or write each other's state, and `rowKey` is the
 * only static (a pure function), so disjoint channels may tick
 * concurrently on different threads within one DramSystem cycle epoch.
 * enqueue()/completions() remain coordinator-only: traffic routing and
 * completion draining happen between epochs on the session thread.
 */

#ifndef PALERMO_MEM_CHANNEL_HH
#define PALERMO_MEM_CHANNEL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory_resource>
#include <vector>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/bank.hh"
#include "mem/dram_timing.hh"

namespace palermo {

/** One data-bus beat, [start, end). */
struct Beat
{
    Tick start;
    Tick end;
};

/** A finished read returned to the requester. */
struct Completion
{
    std::uint64_t tag;   ///< Caller-provided identifier.
    Tick finishTick;     ///< Tick at which read data became available.
    bool forwarded;      ///< Served from the write queue, not the array.
};

/** Aggregated per-channel statistics. */
struct ChannelStats
{
    Counter reads;
    Counter writes;
    Counter rowHits;
    Counter rowMisses;
    Counter rowConflicts;
    Counter forwardedReads;
    Counter coalescedWrites;
    Counter refreshes;
    Counter busBusyTicks;
    Counter totalTicks;
    TimeWeighted queueOccupancy;
    Average readLatency;

    void reset();
};

/** One DDR4 channel with its own command/data bus and bank set. */
class Channel
{
  public:
    Channel(const DramOrg &org, const DramTiming &timing,
            unsigned queue_depth);

    /** True if the relevant queue can accept another request. */
    bool canEnqueue(bool is_write) const;

    /**
     * Enqueue a request whose address decodes to this channel.
     * Reads that hit the write queue complete via forwarding.
     * @return false if the queue is full (caller must retry).
     */
    bool enqueue(const DecodedAddr &dec, bool is_write, std::uint64_t tag,
                 Tick now);

    /** Advance one cycle: issue at most one command, retire data. */
    void tick(Tick now);

    /**
     * Advance a batch of cycles [now, now + cycles) in one call — the
     * batched-epoch fast path used when the coordinator proved no
     * cross-channel event (enqueue, completion delivery) can occur in
     * the window. State evolution is exactly `cycles` calls to tick();
     * quiet spans between events are accounted in one step each.
     * @return The post-tick occupancy integral: sum over the window's
     *         cycles of occupancy() after each tick. All addends are
     *         small integers, so the sum is exact and order-free.
     */
    std::uint64_t tickWindow(Tick now, std::uint64_t cycles);

    /**
     * True when no read activity is pending: the read queue is empty
     * and no completion awaits draining. Queued writes may still drain
     * silently, so this — not occupancy() == 0 — is the channel's
     * half of DramSystem::readQuiescent().
     */
    bool readQuiescent() const
    {
        return readQueue_.empty() && completions_.empty();
    }

    /** Drain completions produced so far (appended in finish order). */
    std::vector<Completion> &completions() { return completions_; }
    const std::vector<Completion> &completions() const
    {
        return completions_;
    }

    /**
     * Lower bound on the tick of the next command (ACT, PRE or CAS)
     * at or after `next`, valid until the next enqueue (see the file
     * comment).
     */
    Tick nextCommandAt(Tick next) const
    {
        if (refreshPending_)
            return next;
        return std::max(next, std::min(wakeAt_, nextRefresh_));
    }

    /** Scheduled data beats not yet retired, in start order; they
     * never overlap. */
    const std::pmr::deque<Beat> &beats() const { return beats_; }

    /** True if the data bus carried a beat during the last tick. */
    bool dataBusActive() const { return busActiveNow_; }

    /** Outstanding requests in both queues. */
    std::size_t occupancy() const
    {
        return readQueue_.size() + writeQueue_.size();
    }

    ChannelStats &stats() { return stats_; }
    const ChannelStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        DecodedAddr dec;
        std::uint64_t tag;
        Tick enqueueTick;
        unsigned flatBank; ///< Cached dec.flatBank(org_).
        bool hadActivate = false;
        bool hadConflict = false;
    };

    /** Request queue in arrival order, reserved to queueDepth_. */
    using EntryQueue = std::vector<Entry>;

    // Scheduling helpers; each issues at most one command and returns
    // true if a command went out this cycle. One that fails lowers
    // *wake to a lower bound on the tick it could next succeed (left
    // alone when only a tracked event can create a candidate).
    bool trySchedule(Tick now, EntryQueue &queue, bool is_write,
                     Tick *wake);
    bool tryColumn(Tick now, EntryQueue &queue, bool is_write, Tick *wake);
    bool tryActivate(Tick now, EntryQueue &queue, bool is_write,
                     Tick *wake);
    bool tryPrecharge(Tick now, EntryQueue &queue, bool is_write,
                      Tick *wake);
    void handleRefresh(Tick now);

    /** Earliest tick any CAS clears the entry-independent gates: the
     * shortest CAS-to-CAS gap and the data bus. */
    Tick casGateAt(bool is_write) const;
    /** Earliest tick a CAS to the open row of `bank` clears every
     * gate. */
    Tick casReadyAt(unsigned bank, bool is_write) const;
    /** Earliest tick any ACT clears tRRD_S and tFAW. */
    Tick actGateAt() const;
    /** Earliest tick an ACT to the closed `bank` clears its bank and
     * tRRD_L gates. */
    Tick actReadyAt(unsigned bank) const;
    /** Lower bound on the first command a newly queued entry needs. */
    Tick entryReadyAt(const Entry &e, bool is_write) const;

    /** Write-drain hysteresis: the mode the next tick would select. */
    bool nextWriteMode() const;
    /** Retire beats ended by `now` and set busActiveNow_. */
    void retireBeats(Tick now);
    /** Next tick after a retireBeats() call at which the bus state
     * changes; kInvalid when no beat is pending. */
    Tick nextBusEdge() const;

    void recordCas(Tick now, const Entry &e, bool is_write);

    /** Key of the queued-request count per (queue, flat bank, row); a
     * flat bank fits in 6 bits. */
    static std::uint64_t rowKey(bool is_write, std::uint64_t flat_bank,
                                std::uint64_t row)
    {
        return (row << 7) | (flat_bank << 1) | (is_write ? 1 : 0);
    }
    void trackEnqueue(const Entry &e, bool is_write);
    void trackDequeue(const Entry &e, bool is_write);
    /** Set a bank's open-row count for one queue, keeping hitMask_ in
     * step. */
    void setOpenRowWant(unsigned q, unsigned bank, std::uint32_t count);

    /** Precharge a bank and reclassify its queued entries as
     * closed-bank demand. Every open->closed transition goes through
     * here so the scheduler-gate counters stay exact; it also clears
     * the wake tick. */
    void closeRow(unsigned flat_bank, Tick now);

    const DramOrg org_;
    const DramTiming timing_;
    const unsigned queueDepth_;

    /** Queued requests per (queue, flat bank, row); an ACT re-derives
     * the bank's openRowWant_ counts from it. Flat map, counts only —
     * never iterated. */
    using RowWantMap = FlatMap<std::uint64_t, std::uint32_t>;
    /** One word per flat bank, indexed [queue][bank]; queue 0 holds
     * reads, 1 writes. */
    using PerBank = std::array<std::vector<std::uint32_t>, 2>;

    std::vector<Bank> banks_;
    /** Bank group of each flat bank (tCCD_L, tWTR_L, tRRD_L). */
    std::vector<std::uint8_t> groupOf_;
    /** Backs actWindow_ and beats_; declared before them. */
    std::pmr::unsynchronized_pool_resource pool_;
    EntryQueue readQueue_;
    EntryQueue writeQueue_;
    RowWantMap rowWant_;
    /** Queued entries of each queue on each bank, regardless of row. */
    PerBank bankWant_;
    /** Queued entries of each queue wanting each bank's open row
     * (exact: the rowWant_ count of that row). Zero for closed banks,
     * recomputed on ACT. */
    PerBank openRowWant_;
    /** Bit b set iff bankWant_[q][b] > 0. */
    std::array<std::uint64_t, 2> wantMask_{};
    /** Bit b set iff openRowWant_[q][b] > 0. */
    std::array<std::uint64_t, 2> hitMask_{};
    /** Bit b set iff bank b has a row open. */
    std::uint64_t openMask_ = 0;

    // Every queued entry is, at any instant, in exactly one scheduler
    // class: row-hit (its bank is open at its row), closed-bank (CAS
    // needs an ACT first), or open-row-mismatch (needs a PRE). The two
    // counters below track the first two classes across both queues;
    // the third is total-queued minus both. Each tryColumn/tryActivate/
    // tryPrecharge scan bails out in O(1) when its class is empty, which
    // is the common case on row-conflict-heavy ORAM traffic.
    std::uint64_t rowHitWant_ = 0;    ///< Entries in the row-hit class.
    std::uint64_t closedBankWant_ = 0; ///< Entries on closed banks.

    /**
     * Earliest tick the precharge sweep could succeed, memoized when a
     * sweep comes up empty with every candidate bank blocked purely on
     * tRAS/tRTP/tWR timing. The candidate banks are those of both
     * queues, so one memo serves both. Valid until any event that can
     * change the candidate set — enqueue, dequeue, ACT, precharge —
     * which all reset it to 0 (always sweep). Lets the per-tick
     * scheduler skip the sweep across multi-tick timing windows.
     */
    Tick preRetryAt_ = 0;

    /**
     * Per-queue analogue of preRetryAt_ for the CAS scan: earliest tick
     * any current row-hit entry of that queue could clear every CAS
     * gate (tRCD/tCCD/tWTR/data bus), memoized on a failed scan. The
     * gating state only pushes deadlines later between tracked events,
     * so the memo stays a valid lower bound until one resets it.
     */
    Tick casRetryRead_ = 0;
    Tick casRetryWrite_ = 0;

    /** Reset the scheduler-scan memos (queue or bank state changed). */
    void resetScanMemos()
    {
        preRetryAt_ = 0;
        casRetryRead_ = 0;
        casRetryWrite_ = 0;
    }

    /**
     * Lower bound on the earliest tick any command could issue (see
     * the file comment). 0 means scan on the next tick.
     */
    Tick wakeAt_ = 0;

    std::vector<Completion> completions_;

    // Channel-level gating state.
    Tick busFreeAt_ = 0;            ///< Data bus reserved through here.
    Tick lastCas_ = 0;              ///< Last CAS issue tick.
    unsigned lastCasBankGroup_ = 0;
    bool lastCasValid_ = false;
    Tick lastWriteDataEnd_ = 0;     ///< For tWTR write->read gating.
    unsigned lastWriteBankGroup_ = 0;
    bool lastWriteValid_ = false;
    Tick lastAct_ = 0;
    unsigned lastActBankGroup_ = 0;
    bool lastActValid_ = false;
    std::pmr::deque<Tick> actWindow_; ///< Last 4 ACTs (tFAW).

    // Refresh state.
    Tick nextRefresh_;
    bool refreshPending_ = false;

    // Write drain hysteresis.
    bool writeMode_ = false;
    unsigned drainHigh_;
    unsigned drainLow_;

    // Instantaneous data-bus activity tracking: pending and active
    // beats in issue order (also start order; they never overlap).
    std::pmr::deque<Beat> beats_;
    bool busActiveNow_ = false;

    ChannelStats stats_;
};

} // namespace palermo

#endif // PALERMO_MEM_CHANNEL_HH
