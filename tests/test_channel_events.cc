/**
 * @file
 * Differential test for the event-driven DRAM channel.
 *
 * The oracle, RefChannel, is a plain per-cycle FR-FCFS scheduler: on
 * every tick it scans both queues for the first issuable CAS, then ACT,
 * then PRE, with no class counters, scan memos or wake tick, and it
 * finds row wants and active data beats by scanning too. Channel must
 * agree with it on every tick under seeded random traffic that mixes
 * row-hit runs, bursts past the queue depth (backpressure), idle gaps,
 * refresh crossings, short write-only drains, write coalescing and read
 * forwarding. A second pass drives Channel through tickWindow() across
 * every quiet stretch and checks each window against the same number of
 * single ticks, both of the oracle and of a per-tick Channel twin.
 * The per-tick pass also checks Channel::nextCommandAt: the oracle
 * issues no command (ACT, PRE, CAS or refresh) before it.
 *
 * The same traffic, spread over several channels, then drives a
 * DramSystem. From states reached mid-run with reads in flight and
 * completions left undrained, it checks the visible horizon: ticking
 * one cycle at a time up to visibleHorizon() makes no completion due
 * and starts no beat that busyTicksIn() did not predict, and
 * tickWindow() over such a span (or any span free of enqueues and
 * drains, sharded or not) equals as many single ticks in state,
 * completions and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/channel.hh"
#include "mem/dram_system.hh"
#include "sim/parallel.hh"

namespace palermo {
namespace {

/** Per-cycle FR-FCFS channel with the rules Channel implements. */
class RefChannel
{
  public:
    RefChannel(const DramOrg &org, const DramTiming &timing,
               unsigned depth)
        : org_(org), timing_(timing), depth_(depth),
          banks_(org.banksPerChannel()), nextRefresh_(timing.tREFI),
          drainHigh_(std::max(2u, depth * 3 / 4)),
          drainLow_(std::max(1u, depth / 4))
    {
    }

    bool canEnqueue(bool is_write) const
    {
        return (is_write ? writes_ : reads_).size() < depth_;
    }

    bool enqueue(const DecodedAddr &dec, bool is_write, std::uint64_t tag,
                 Tick now)
    {
        const unsigned bank = dec.flatBank(org_);
        const bool pending = std::any_of(
            writes_.begin(), writes_.end(), [&](const Entry &e) {
                return e.bank == bank && e.dec.row == dec.row
                    && e.dec.column == dec.column;
            });
        if (is_write) {
            if (pending) {
                stats_.coalescedWrites.inc();
                return true;
            }
            if (!canEnqueue(true))
                return false;
            writes_.push_back({dec, tag, now, bank});
            stats_.writes.inc();
            return true;
        }
        if (pending) {
            stats_.forwardedReads.inc();
            stats_.reads.inc();
            completions_.push_back({tag, now + timing_.tCL, true});
            stats_.readLatency.sample(static_cast<double>(timing_.tCL));
            return true;
        }
        if (!canEnqueue(false))
            return false;
        reads_.push_back({dec, tag, now, bank});
        return true;
    }

    void tick(Tick now)
    {
        stats_.totalTicks.inc();
        stats_.queueOccupancy.accumulate(static_cast<double>(occupancy()),
                                         1);
        std::erase_if(beats_, [&](const Beat &b) { return b.end <= now; });
        busActive_ = std::any_of(beats_.begin(), beats_.end(),
                                 [&](const Beat &b) {
                                     return b.start <= now;
                                 });
        if (busActive_)
            stats_.busBusyTicks.inc();

        if (refreshPending_ || now >= nextRefresh_) {
            refresh(now);
            return;
        }
        if (!writeMode_) {
            if (writes_.size() >= drainHigh_
                || (reads_.empty() && !writes_.empty())) {
                writeMode_ = true;
            }
        } else if (writes_.size() <= drainLow_
                   || (writes_.empty() && !reads_.empty())) {
            writeMode_ = false;
        }
        if (writeMode_) {
            if (!schedule(now, writes_, true))
                schedule(now, reads_, false);
        } else if (!schedule(now, reads_, false)) {
            schedule(now, writes_, true);
        }
    }

    std::vector<Completion> &completions() { return completions_; }
    bool dataBusActive() const { return busActive_; }
    /** ACT, PRE, CAS and refresh commands issued so far. */
    std::uint64_t commands() const { return commands_; }
    std::size_t occupancy() const { return reads_.size() + writes_.size(); }
    std::size_t deepestQueue() const
    {
        return std::max(reads_.size(), writes_.size());
    }
    const ChannelStats &stats() const { return stats_; }

    /** The hysteresis flips on every tick in this state. */
    bool drainModeFlips() const
    {
        return reads_.empty() && !writes_.empty()
            && writes_.size() <= drainLow_;
    }

  private:
    struct Entry
    {
        DecodedAddr dec;
        std::uint64_t tag;
        Tick enqueueTick;
        unsigned bank;
        bool hadActivate = false;
        bool hadConflict = false;
    };

    struct Beat
    {
        Tick start;
        Tick end;
    };

    bool wanted(unsigned bank, std::uint64_t row) const
    {
        const auto wants = [&](const Entry &e) {
            return e.bank == bank && e.dec.row == row;
        };
        return std::any_of(reads_.begin(), reads_.end(), wants)
            || std::any_of(writes_.begin(), writes_.end(), wants);
    }

    bool schedule(Tick now, std::vector<Entry> &queue, bool is_write)
    {
        if (queue.empty())
            return false;
        return column(now, queue, is_write) || activate(now, queue)
            || precharge(now, queue);
    }

    bool column(Tick now, std::vector<Entry> &queue, bool is_write)
    {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            Bank &bank = banks_[it->bank];
            const unsigned group = it->dec.bankGroup;
            if (!bank.isOpen() || bank.openRow() != it->dec.row
                || !bank.canColumn(now, is_write)) {
                continue;
            }
            if (lastCasValid_
                && now < lastCas_ + (group == lastCasGroup_
                                         ? timing_.tCCD_L : timing_.tCCD_S)) {
                continue;
            }
            if (!is_write && lastWriteValid_
                && now < lastWriteEnd_ + (group == lastWriteGroup_
                                              ? timing_.tWTR_L
                                              : timing_.tWTR_S)) {
                continue;
            }
            const Tick start = now + (is_write ? timing_.tCWL : timing_.tCL);
            if (start < busFreeAt_)
                continue;

            bank.column(now, is_write, timing_);
            ++commands_;
            lastCas_ = now;
            lastCasGroup_ = group;
            lastCasValid_ = true;
            beats_.push_back({start, start + timing_.tBL});
            busFreeAt_ = start + timing_.tBL;
            if (is_write) {
                lastWriteEnd_ = busFreeAt_;
                lastWriteGroup_ = group;
                lastWriteValid_ = true;
            }
            if (it->hadConflict)
                stats_.rowConflicts.inc();
            else if (it->hadActivate)
                stats_.rowMisses.inc();
            else
                stats_.rowHits.inc();
            if (!is_write) {
                const Tick finish = now + timing_.tCL + timing_.tBL;
                completions_.push_back({it->tag, finish, false});
                stats_.reads.inc();
                stats_.readLatency.sample(
                    static_cast<double>(finish - it->enqueueTick));
            }
            queue.erase(it);
            return true;
        }
        return false;
    }

    bool activate(Tick now, std::vector<Entry> &queue)
    {
        if (lastActValid_ && now < lastAct_ + timing_.tRRD_S)
            return false;
        if (acts_.size() >= 4 && now < acts_.front() + timing_.tFAW)
            return false;
        for (Entry &entry : queue) {
            Bank &bank = banks_[entry.bank];
            if (!bank.canActivate(now))
                continue;
            if (lastActValid_ && entry.dec.bankGroup == lastActGroup_
                && now < lastAct_ + timing_.tRRD_L) {
                continue;
            }
            bank.activate(now, entry.dec.row, timing_);
            ++commands_;
            entry.hadActivate = true;
            lastAct_ = now;
            lastActGroup_ = entry.dec.bankGroup;
            lastActValid_ = true;
            acts_.push_back(now);
            if (acts_.size() > 4)
                acts_.pop_front();
            return true;
        }
        return false;
    }

    bool precharge(Tick now, std::vector<Entry> &queue)
    {
        for (Entry &entry : queue) {
            Bank &bank = banks_[entry.bank];
            if (!bank.isOpen() || bank.openRow() == entry.dec.row)
                continue;
            if (wanted(entry.bank, bank.openRow()))
                continue;
            if (!bank.canPrecharge(now))
                continue;
            bank.precharge(now, timing_);
            ++commands_;
            entry.hadConflict = true;
            return true;
        }
        return false;
    }

    void refresh(Tick now)
    {
        refreshPending_ = true;
        bool any_open = false;
        for (Bank &bank : banks_) {
            if (bank.isOpen()) {
                any_open = true;
                if (bank.canPrecharge(now)) {
                    bank.precharge(now, timing_);
                    ++commands_;
                }
            }
        }
        if (any_open)
            return;
        for (Bank &bank : banks_)
            bank.refresh(now, timing_);
        ++commands_;
        stats_.refreshes.inc();
        refreshPending_ = false;
        nextRefresh_ = now + timing_.tREFI;
    }

    const DramOrg org_;
    const DramTiming timing_;
    const unsigned depth_;
    std::vector<Bank> banks_;
    std::vector<Entry> reads_;
    std::vector<Entry> writes_;
    std::vector<Completion> completions_;
    std::vector<Beat> beats_;
    bool busActive_ = false;
    std::uint64_t commands_ = 0;
    Tick busFreeAt_ = 0;
    Tick lastCas_ = 0;
    unsigned lastCasGroup_ = 0;
    bool lastCasValid_ = false;
    Tick lastWriteEnd_ = 0;
    unsigned lastWriteGroup_ = 0;
    bool lastWriteValid_ = false;
    Tick lastAct_ = 0;
    unsigned lastActGroup_ = 0;
    bool lastActValid_ = false;
    std::deque<Tick> acts_;
    Tick nextRefresh_;
    bool refreshPending_ = false;
    bool writeMode_ = false;
    unsigned drainHigh_;
    unsigned drainLow_;
    ChannelStats stats_;
};

/** One differential configuration. */
struct Case
{
    unsigned depth;
    unsigned ranks;
    unsigned bankGroups;
    unsigned banksPerGroup;
    bool fastRefresh; ///< Short tREFI/tRFC: many refresh crossings.
    std::uint64_t seed;
    Tick horizon;
};

const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = {
        {4, 1, 2, 2, false, 1, 60000},  {8, 1, 2, 2, true, 2, 40000},
        {16, 1, 4, 4, false, 3, 60000}, {32, 2, 2, 4, true, 4, 40000},
        {64, 1, 4, 4, true, 5, 40000},  {12, 1, 2, 4, true, 6, 40000},
        // The bank masks' width limits: 64 banks reach bit 63, and one
        // bank is a single bit in a single bank group.
        {16, 4, 4, 4, true, 7, 40000},  {8, 1, 1, 1, true, 8, 40000},
    };
    return all;
}

DramOrg
orgOf(const Case &c)
{
    DramOrg org;
    org.channels = 1;
    org.ranks = c.ranks;
    org.bankGroups = c.bankGroups;
    org.banksPerGroup = c.banksPerGroup;
    org.rows = 8; // Few rows: frequent hits and conflicts.
    org.columnsPerRow = 8;
    return org;
}

DramTiming
timingOf(const Case &c)
{
    DramTiming timing = ddr4_3200();
    if (c.fastRefresh) {
        timing.tREFI = 1800;
        timing.tRFC = 160;
    }
    return timing;
}

struct Arrival
{
    Tick at;
    DecodedAddr dec;
    bool write;
};

/** Seeded arrival schedule, in tick order. */
std::vector<Arrival>
makeTraffic(const Case &c, const DramOrg &org, const DramTiming &timing)
{
    Rng rng(c.seed);
    const unsigned drain_low = std::max(1u, c.depth / 4);
    const auto line = [&](std::uint64_t row) {
        DecodedAddr dec{};
        dec.rank = static_cast<unsigned>(rng.range(org.ranks));
        dec.bankGroup = static_cast<unsigned>(rng.range(org.bankGroups));
        dec.bank = static_cast<unsigned>(rng.range(org.banksPerGroup));
        dec.row = row;
        dec.column = static_cast<unsigned>(rng.range(org.columnsPerRow));
        return dec;
    };
    std::vector<Arrival> out;
    std::vector<DecodedAddr> written; // Recent write lines.
    Tick t = 0;
    const auto emit = [&](const DecodedAddr &dec, bool write) {
        out.push_back({t, dec, write});
        if (write) {
            written.push_back(dec);
            if (written.size() > 16)
                written.erase(written.begin());
        }
    };
    while (t < c.horizon) {
        switch (rng.range(6)) {
        case 0: { // Row-hit run on one bank.
            DecodedAddr dec = line(rng.range(org.rows));
            for (auto n = rng.between(2, 12); n > 0; --n) {
                t += rng.range(4);
                dec.column = static_cast<unsigned>(
                    rng.range(org.columnsPerRow));
                emit(dec, rng.chance(0.3));
            }
            break;
        }
        case 1: // Burst past the queue depth: backpressure.
            for (auto n = rng.between(c.depth / 2, 2 * c.depth + 4); n > 0;
                 --n) {
                t += rng.range(2);
                emit(line(rng.range(org.rows)), rng.chance(0.4));
            }
            break;
        case 2: // Short write-only drain, then quiet.
            for (auto n = rng.between(1, drain_low); n > 0; --n) {
                t += rng.range(3);
                emit(line(rng.range(org.rows)), true);
            }
            if (rng.chance(0.5)) {
                // While the drain still holds writes, add a read and
                // drain_low + 1 writes: the write count then sits
                // between the drain marks (depth > 4), where the mode
                // keeps its value and picks which queue goes first,
                // so a mode left stale by a window shows.
                t += rng.between(5, 40);
                for (unsigned n = 0; n <= drain_low; ++n)
                    emit(line(rng.range(org.rows)), true);
                emit(line(rng.range(org.rows)), false);
            }
            t += rng.between(20, 400);
            break;
        case 3: // Coalesce into or forward from recent writes.
            for (auto n = rng.between(1, 4); n > 0 && !written.empty();
                 --n) {
                t += rng.range(6);
                emit(written[rng.range(written.size())], rng.chance(0.5));
            }
            break;
        case 4: // Idle gap, sometimes across a refresh.
            t += rng.chance(0.2)
                ? rng.between(timing.tREFI / 2, 2 * timing.tREFI)
                : rng.between(10, 1500);
            break;
        default: // Sparse mix.
            for (auto n = rng.between(1, 6); n > 0; --n) {
                t += rng.range(30);
                emit(line(rng.range(org.rows)), rng.chance(0.3));
            }
            break;
        }
    }
    return out;
}

/** How often the traffic reached each edge case (all cases summed). */
struct Coverage
{
    std::uint64_t rejected = 0;
    std::uint64_t deepQueueTicks = 0; ///< A queue past 8 entries.
    std::uint64_t windows = 0;
    std::uint64_t refreshWindows = 0; ///< Windows crossing a refresh.
    std::uint64_t edgeWindows = 0;    ///< Windows crossing a bus edge.
    std::uint64_t flipWindows = 0;    ///< Windows with drain-mode flips.
    std::uint64_t quietTicks = 0; ///< Ticks before nextCommandAt.

    void print() const
    {
        std::printf("rejected %llu, deep-queue ticks %llu, windows %llu "
                    "(refresh %llu, bus edge %llu, drain flips %llu), "
                    "quiet ticks %llu\n",
                    static_cast<unsigned long long>(rejected),
                    static_cast<unsigned long long>(deepQueueTicks),
                    static_cast<unsigned long long>(windows),
                    static_cast<unsigned long long>(refreshWindows),
                    static_cast<unsigned long long>(edgeWindows),
                    static_cast<unsigned long long>(flipWindows),
                    static_cast<unsigned long long>(quietTicks));
    }
};

/** Compare everything a caller of the channel can see after a tick.
 * Completions are compared as produced so far; the caller clears them. */
template <typename A, typename B>
void
expectSameObservables(A &got, B &want, Tick now)
{
    const std::vector<Completion> &done = got.completions();
    const std::vector<Completion> &expected = want.completions();
    ASSERT_EQ(done.size(), expected.size()) << "tick " << now;
    for (std::size_t i = 0; i < done.size(); ++i) {
        ASSERT_EQ(done[i].tag, expected[i].tag) << "tick " << now;
        ASSERT_EQ(done[i].finishTick, expected[i].finishTick)
            << "tick " << now;
        ASSERT_EQ(done[i].forwarded, expected[i].forwarded)
            << "tick " << now;
    }
    ASSERT_EQ(got.dataBusActive(), want.dataBusActive()) << "tick " << now;
    ASSERT_EQ(got.occupancy(), want.occupancy()) << "tick " << now;
    ASSERT_EQ(got.canEnqueue(false), want.canEnqueue(false))
        << "tick " << now;
    ASSERT_EQ(got.canEnqueue(true), want.canEnqueue(true))
        << "tick " << now;
}

void
expectSameStats(const ChannelStats &got, const ChannelStats &want)
{
    EXPECT_EQ(got.reads.value(), want.reads.value());
    EXPECT_EQ(got.writes.value(), want.writes.value());
    EXPECT_EQ(got.rowHits.value(), want.rowHits.value());
    EXPECT_EQ(got.rowMisses.value(), want.rowMisses.value());
    EXPECT_EQ(got.rowConflicts.value(), want.rowConflicts.value());
    EXPECT_EQ(got.forwardedReads.value(), want.forwardedReads.value());
    EXPECT_EQ(got.coalescedWrites.value(), want.coalescedWrites.value());
    EXPECT_EQ(got.refreshes.value(), want.refreshes.value());
    EXPECT_EQ(got.busBusyTicks.value(), want.busBusyTicks.value());
    EXPECT_EQ(got.totalTicks.value(), want.totalTicks.value());
    EXPECT_EQ(got.queueOccupancy.ticks(), want.queueOccupancy.ticks());
    EXPECT_EQ(got.queueOccupancy.mean(), want.queueOccupancy.mean());
    EXPECT_EQ(got.readLatency.count(), want.readLatency.count());
    EXPECT_EQ(got.readLatency.sum(), want.readLatency.sum());
    EXPECT_EQ(got.readLatency.min(), want.readLatency.min());
    EXPECT_EQ(got.readLatency.max(), want.readLatency.max());
}

/**
 * Drive one case. Arrivals enqueue in order until the first rejection;
 * the rest retry next tick. Without windows, Channel ticks once per
 * cycle. With windows, every stretch with nothing to enqueue goes
 * through tickWindow() in randomly cut pieces, checked against as many
 * single ticks of the oracle and of a per-tick Channel twin.
 */
void
runCase(const Case &c, bool windows, Coverage *coverage)
{
    const DramOrg org = orgOf(c);
    const DramTiming timing = timingOf(c);
    const std::vector<Arrival> arrivals = makeTraffic(c, org, timing);

    RefChannel ref(org, timing, c.depth);
    Channel dut(org, timing, c.depth);
    Channel twin(org, timing, c.depth);
    Rng cut(c.seed * 7919 + 1);
    std::deque<Arrival> backlog;
    std::size_t next = 0;
    std::uint64_t tag = 0;
    Tick now = 0;
    while (now < c.horizon) {
        while (next < arrivals.size() && arrivals[next].at == now)
            backlog.push_back(arrivals[next++]);
        while (!backlog.empty()) {
            const Arrival &a = backlog.front();
            ASSERT_EQ(dut.canEnqueue(a.write), ref.canEnqueue(a.write));
            const bool accepted = dut.enqueue(a.dec, a.write, tag, now);
            ASSERT_EQ(ref.enqueue(a.dec, a.write, tag, now), accepted)
                << "tick " << now;
            if (windows) {
                ASSERT_EQ(twin.enqueue(a.dec, a.write, tag, now),
                          accepted);
            }
            if (!accepted) {
                ++coverage->rejected;
                break;
            }
            ++tag;
            backlog.pop_front();
        }

        if (!windows || !backlog.empty()) {
            // Nothing enqueues before the next loop pass, so the bound
            // holds for this tick.
            const bool quiet = dut.nextCommandAt(now) > now;
            const std::uint64_t commands = ref.commands();
            dut.tick(now);
            ref.tick(now);
            if (quiet) {
                ASSERT_EQ(ref.commands(), commands)
                    << "command before nextCommandAt, tick " << now;
                ++coverage->quietTicks;
            }
            if (windows) {
                twin.tick(now);
                ASSERT_NO_FATAL_FAILURE(expectSameObservables(twin, ref, now));
                twin.completions().clear();
            }
            ASSERT_NO_FATAL_FAILURE(expectSameObservables(dut, ref, now));
            dut.completions().clear();
            ref.completions().clear();
            if (ref.deepestQueue() > 8)
                ++coverage->deepQueueTicks;
            ++now;
            continue;
        }

        // Nothing to enqueue before the next arrival: one window.
        const Tick quiet =
            (next < arrivals.size() ? arrivals[next].at : c.horizon) - now;
        const std::uint64_t span =
            cut.chance(0.5) ? quiet : cut.between(1, quiet);
        const std::uint64_t refreshes = ref.stats().refreshes.value();
        bool edge = false;
        bool flips = false;
        std::uint64_t ref_integral = 0;
        std::uint64_t twin_integral = 0;
        for (std::uint64_t i = 0; i < span; ++i) {
            const bool bus_before = ref.dataBusActive();
            flips = flips || ref.drainModeFlips();
            ref.tick(now + i);
            twin.tick(now + i);
            ref_integral += ref.occupancy();
            twin_integral += twin.occupancy();
            edge = edge || (i > 0 && bus_before != ref.dataBusActive());
        }
        const std::uint64_t integral = dut.tickWindow(now, span);
        now += span;
        EXPECT_EQ(integral, ref_integral) << "window ending " << now;
        EXPECT_EQ(twin_integral, ref_integral) << "window ending " << now;
        ASSERT_NO_FATAL_FAILURE(expectSameObservables(twin, ref, now));
        ASSERT_NO_FATAL_FAILURE(expectSameObservables(dut, ref, now));
        twin.completions().clear();
        dut.completions().clear();
        ref.completions().clear();
        ++coverage->windows;
        coverage->refreshWindows += ref.stats().refreshes.value() > refreshes;
        coverage->edgeWindows += edge;
        coverage->flipWindows += flips;
    }
    expectSameStats(dut.stats(), ref.stats());
    if (windows)
        expectSameStats(twin.stats(), ref.stats());

    // The traffic must exercise what it claims to.
    EXPECT_GT(ref.stats().refreshes.value(), 0u);
    EXPECT_GT(ref.stats().forwardedReads.value(), 0u);
    EXPECT_GT(ref.stats().coalescedWrites.value(), 0u);
    EXPECT_GT(ref.stats().rowHits.value(), 0u);
    EXPECT_GT(ref.stats().rowConflicts.value(), 0u);
}

std::string
caseName(const Case &c)
{
    return "depth " + std::to_string(c.depth) + ", seed "
        + std::to_string(c.seed);
}

TEST(ChannelEvents, PerTickMatchesReference)
{
    Coverage coverage;
    for (const Case &c : cases()) {
        SCOPED_TRACE(caseName(c));
        runCase(c, false, &coverage);
    }
    coverage.print();
    EXPECT_GT(coverage.rejected, 0u);
    EXPECT_GT(coverage.deepQueueTicks, 0u); // Bank-major PRE sweep.
    EXPECT_GT(coverage.quietTicks, 0u);
}

TEST(ChannelEvents, WindowsMatchSingleTicks)
{
    Coverage coverage;
    for (const Case &c : cases()) {
        SCOPED_TRACE(caseName(c));
        runCase(c, true, &coverage);
    }
    coverage.print();
    EXPECT_GT(coverage.rejected, 0u);
    EXPECT_GT(coverage.windows, 1000u);
    EXPECT_GT(coverage.refreshWindows, 0u);
    EXPECT_GT(coverage.edgeWindows, 0u);
    EXPECT_GT(coverage.flipWindows, 0u);
}

/** How often the DramSystem pass reached each case (all summed). */
struct HorizonCoverage
{
    std::uint64_t checks = 0;      ///< Horizon checks with reads in flight.
    std::uint64_t busyTicks = 0;   ///< Busy ticks inside checked spans.
    std::uint64_t beyond = 0;      ///< Windows longer than the horizon.
    std::uint64_t sharded = 0;     ///< Windows through the worker pool.
    std::uint64_t delivered = 0;   ///< Completions due after a window.

    void print() const
    {
        std::printf("horizon checks %llu, busy ticks %llu, windows "
                    "past the horizon %llu, sharded %llu, completions "
                    "after a window %llu\n",
                    static_cast<unsigned long long>(checks),
                    static_cast<unsigned long long>(busyTicks),
                    static_cast<unsigned long long>(beyond),
                    static_cast<unsigned long long>(sharded),
                    static_cast<unsigned long long>(delivered));
    }
};

/** Drained completions in a canonical order (equal finish ticks from
 * different channels may come in either order). */
std::vector<Completion>
sortedDrain(DramSystem &dram)
{
    std::vector<Completion> done = dram.drainCompletions();
    std::sort(done.begin(), done.end(),
              [](const Completion &a, const Completion &b) {
                  return a.finishTick != b.finishTick
                      ? a.finishTick < b.finishTick : a.tag < b.tag;
              });
    return done;
}

/** Drain both and compare; `*due` counts what was delivered. */
void
expectSameDrain(DramSystem &got, DramSystem &want,
                std::uint64_t *due = nullptr)
{
    const std::vector<Completion> done = sortedDrain(got);
    const std::vector<Completion> expected = sortedDrain(want);
    if (due != nullptr)
        *due += expected.size();
    ASSERT_EQ(done.size(), expected.size()) << "tick " << got.now();
    for (std::size_t i = 0; i < done.size(); ++i) {
        ASSERT_EQ(done[i].tag, expected[i].tag) << "tick " << got.now();
        ASSERT_EQ(done[i].finishTick, expected[i].finishTick);
        ASSERT_EQ(done[i].forwarded, expected[i].forwarded);
    }
}

void
expectSameSnapshot(const DramSnapshot &got, const DramSnapshot &want)
{
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.rowHits, want.rowHits);
    EXPECT_EQ(got.rowMisses, want.rowMisses);
    EXPECT_EQ(got.rowConflicts, want.rowConflicts);
    EXPECT_EQ(got.forwardedReads, want.forwardedReads);
    EXPECT_EQ(got.busBusyTicks, want.busBusyTicks);
    EXPECT_EQ(got.totalTicks, want.totalTicks);
    EXPECT_EQ(got.avgQueueOccupancy, want.avgQueueOccupancy);
    EXPECT_EQ(got.avgReadLatency, want.avgReadLatency);
}

/**
 * One horizon check at dut.now() (the next tick to run), with nothing
 * enqueued for `limit` ticks. The twin ticks one cycle at a time
 * through a window of up to `limit` ticks, draining before each tick
 * below the horizon the way a per-cycle session would; dut advances
 * through the same window with one tickWindow().
 */
void
checkHorizon(DramSystem &dut, DramSystem &twin, std::uint64_t limit,
             WorkerPool *pool, Rng &pick, HorizonCoverage *coverage)
{
    const Tick now = dut.now();
    const Tick horizon = dut.visibleHorizon(now);
    if (horizon <= now)
        return; // A completion is due now: nothing to defer.
    const std::uint64_t visible = horizon - now;
    const bool beyond = pick.chance(0.3);
    const std::uint64_t span = beyond
        ? pick.between(1, limit) : std::min(visible, limit);
    const std::uint64_t checked = std::min(visible, span);

    // Predictions from the state the span starts in: the bus after
    // each tick from the last one run (now - 1) through the horizon.
    const Tick last = std::min<Tick>(horizon, now + span);
    std::vector<char> predicted;
    for (Tick t = now - 1; t < last; ++t)
        predicted.push_back(dut.busyTicksIn(t, t + 1) == 1);
    const std::uint64_t busy = dut.busyTicksIn(now - 1, now - 1 + checked);

    std::uint64_t observed = 0;
    std::uint64_t twin_integral = 0;
    for (std::uint64_t i = 0;; ++i) {
        const Tick shown = now - 1 + i; // The tick twin's bus shows.
        if (shown < last) {
            ASSERT_EQ(twin.dataBusActive(), predicted[i] != 0)
                << "unpredicted bus state after tick " << shown
                << ", horizon " << horizon;
            if (i < checked)
                observed += twin.dataBusActive();
        }
        if (i == span)
            break;
        if (now + i < horizon) {
            ASSERT_TRUE(twin.drainCompletions().empty())
                << "completion due at tick " << now + i << ", horizon "
                << horizon;
        }
        twin.tick();
        twin_integral += twin.occupancy();
    }
    EXPECT_EQ(busy, observed);

    const bool sharded = pool != nullptr && span >= 8 && pick.chance(0.5);
    const std::uint64_t integral =
        dut.tickWindow(sharded ? pool : nullptr, span);
    EXPECT_EQ(integral, twin_integral) << "window ending " << dut.now();
    ASSERT_EQ(dut.now(), twin.now());
    ASSERT_EQ(dut.dataBusActive(), twin.dataBusActive());
    ASSERT_EQ(dut.occupancy(), twin.occupancy());
    ASSERT_EQ(dut.readQuiescent(), twin.readQuiescent());
    ASSERT_EQ(dut.visibleHorizon(dut.now()), twin.visibleHorizon(twin.now()));
    expectSameSnapshot(dut.snapshot(), twin.snapshot());
    ASSERT_NO_FATAL_FAILURE(
        expectSameDrain(dut, twin, &coverage->delivered));
    ++coverage->checks;
    coverage->busyTicks += busy;
    coverage->beyond += span > visible;
    coverage->sharded += sharded;
}

/** Route a channel-local line to a channel by its coordinates, so a
 * line written and read again lands on the same channel. */
Addr
systemAddress(const AddressMap &map, DecodedAddr dec, unsigned channels)
{
    dec.channel = static_cast<unsigned>(
        (dec.row + dec.column + dec.bank + dec.bankGroup) % channels);
    return map.encode(dec);
}

/**
 * Drive a DramSystem (dut) and a per-tick twin with one case's
 * traffic over `channels` channels. Completions are drained only on
 * some ticks, so outboxes hold several ticks' worth at times. At
 * random ticks with reads in flight and no enqueue due, run a horizon
 * check over the quiet stretch before the next arrival.
 */
void
runSystemCase(const Case &c, unsigned channels, WorkerPool *pool,
              HorizonCoverage *coverage)
{
    DramConfig config;
    config.org = orgOf(c);
    config.org.channels = channels;
    config.timing = timingOf(c);
    config.queueDepth = c.depth;
    const AddressMap map(config.org, config.policy);
    const std::vector<Arrival> arrivals =
        makeTraffic(c, orgOf(c), config.timing);

    DramSystem dut(config);
    DramSystem twin(config);
    Rng pick(c.seed * 104729 + channels);
    std::deque<Arrival> backlog;
    std::size_t next = 0;
    std::uint64_t tag = 0;
    while (dut.now() < c.horizon) {
        const Tick now = dut.now();
        const Tick quiet_until =
            next < arrivals.size() ? arrivals[next].at : c.horizon;
        if (now > 0 && backlog.empty() && quiet_until > now
            && !dut.readQuiescent() && pick.chance(0.3)) {
            ASSERT_NO_FATAL_FAILURE(checkHorizon(
                dut, twin, quiet_until - now, pool, pick, coverage));
            if (dut.now() > now)
                continue;
        }

        while (next < arrivals.size() && arrivals[next].at == now)
            backlog.push_back(arrivals[next++]);
        while (!backlog.empty()) {
            const Arrival &a = backlog.front();
            const Addr addr = systemAddress(map, a.dec, channels);
            const bool accepted = dut.enqueue(addr, a.write, tag);
            ASSERT_EQ(twin.enqueue(addr, a.write, tag), accepted);
            if (!accepted)
                break;
            ++tag;
            backlog.pop_front();
        }
        if (pick.chance(0.5)) {
            ASSERT_NO_FATAL_FAILURE(expectSameDrain(dut, twin));
        }
        dut.tick();
        twin.tick();
        ASSERT_EQ(dut.dataBusActive(), twin.dataBusActive());
    }
    expectSameSnapshot(dut.snapshot(), twin.snapshot());
    EXPECT_GT(dut.snapshot().forwardedReads, 0u);
}

TEST(ChannelEvents, DramHorizonHidesNothingAndWindowsMatchTicks)
{
    WorkerPool pool(2);
    HorizonCoverage coverage;
    for (const Case &c : cases()) {
        for (const unsigned channels : {2u, 4u}) {
            SCOPED_TRACE(caseName(c) + ", " + std::to_string(channels)
                         + " channels");
            runSystemCase(c, channels, &pool, &coverage);
        }
    }
    coverage.print();
    EXPECT_GT(coverage.checks, 1000u);
    EXPECT_GT(coverage.busyTicks, 0u);
    EXPECT_GT(coverage.beyond, 0u);
    EXPECT_GT(coverage.sharded, 0u);
    EXPECT_GT(coverage.delivered, 0u);
}

} // namespace
} // namespace palermo
