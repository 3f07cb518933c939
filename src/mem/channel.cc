/**
 * @file
 * FR-FCFS scheduling, write-drain hysteresis, tRRD/tFAW windows,
 * CAS-to-CAS gating, refresh, and the wake-tick / event-to-event
 * advancement for one DDR4 channel.
 */

#include "mem/channel.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace palermo {

namespace {

constexpr std::uint64_t
bankBit(unsigned bank)
{
    return std::uint64_t{1} << bank;
}

/** Split the bank mask `banks` by the tick `ready_at(b)` at which each
 * bank's gates clear: return the banks ready at `now`, and lower
 * *earliest to the first tick one of the others is. */
template <typename ReadyAt>
std::uint64_t
readyBanks(std::uint64_t banks, Tick now, Tick *earliest, ReadyAt ready_at)
{
    std::uint64_t ready = 0;
    for (; banks != 0; banks &= banks - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(banks));
        const Tick at = ready_at(b);
        if (now < at)
            *earliest = std::min(*earliest, at);
        else
            ready |= bankBit(b);
    }
    return ready;
}

} // namespace

void
ChannelStats::reset()
{
    reads.reset();
    writes.reset();
    rowHits.reset();
    rowMisses.reset();
    rowConflicts.reset();
    forwardedReads.reset();
    coalescedWrites.reset();
    refreshes.reset();
    busBusyTicks.reset();
    totalTicks.reset();
    queueOccupancy.reset();
    readLatency.reset();
}

Channel::Channel(const DramOrg &org, const DramTiming &timing,
                 unsigned queue_depth)
    : org_(org), timing_(timing), queueDepth_(queue_depth),
      banks_(org.banksPerChannel()),
      actWindow_(&pool_),
      nextRefresh_(timing.tREFI),
      drainHigh_(std::max(2u, queue_depth * 3 / 4)),
      drainLow_(std::max(1u, queue_depth / 4)),
      beats_(&pool_)
{
    const unsigned banks = org.banksPerChannel();
    palermo_assert(banks >= 1 && banks <= 64,
                   "one 64-bit mask bit per bank");
    groupOf_.resize(banks);
    for (unsigned b = 0; b < banks; ++b)
        groupOf_[b] = static_cast<std::uint8_t>(org.bankGroupOf(b));
    for (unsigned q = 0; q < 2; ++q) {
        bankWant_[q].assign(banks, 0);
        openRowWant_[q].assign(banks, 0);
    }
    readQueue_.reserve(queue_depth);
    writeQueue_.reserve(queue_depth);
    // The session drains the outbox before every real cycle. A
    // deferred span adds at most one completion per read queued when
    // it began, so only forwarded reads can outgrow this.
    completions_.reserve(queue_depth);
}

bool
Channel::canEnqueue(bool is_write) const
{
    const auto &queue = is_write ? writeQueue_ : readQueue_;
    return queue.size() < queueDepth_;
}

void
Channel::setOpenRowWant(unsigned q, unsigned bank, std::uint32_t count)
{
    openRowWant_[q][bank] = count;
    hitMask_[q] = count > 0 ? hitMask_[q] | bankBit(bank)
                            : hitMask_[q] & ~bankBit(bank);
}

void
Channel::trackEnqueue(const Entry &e, bool is_write)
{
    const unsigned q = is_write;
    ++rowWant_[rowKey(is_write, e.flatBank, e.dec.row)];
    ++bankWant_[q][e.flatBank];
    wantMask_[q] |= bankBit(e.flatBank);
    const Bank &bank = banks_[e.flatBank];
    if (!bank.isOpen()) {
        ++closedBankWant_;
    } else if (bank.openRow() == e.dec.row) {
        setOpenRowWant(q, e.flatBank, openRowWant_[q][e.flatBank] + 1);
        ++rowHitWant_;
    }
    resetScanMemos();
    // Only the new entry can make a command issue earlier.
    wakeAt_ = std::min(wakeAt_, entryReadyAt(e, is_write));
}

void
Channel::trackDequeue(const Entry &e, bool is_write)
{
    const unsigned q = is_write;
    const auto it = rowWant_.find(rowKey(is_write, e.flatBank, e.dec.row));
    if (--it->second == 0)
        rowWant_.erase(it);
    if (--bankWant_[q][e.flatBank] == 0)
        wantMask_[q] &= ~bankBit(e.flatBank);
    const Bank &bank = banks_[e.flatBank];
    if (!bank.isOpen()) {
        --closedBankWant_;
    } else if (bank.openRow() == e.dec.row) {
        setOpenRowWant(q, e.flatBank, openRowWant_[q][e.flatBank] - 1);
        --rowHitWant_;
    }
    resetScanMemos();
}

void
Channel::closeRow(unsigned flat_bank, Tick now)
{
    banks_[flat_bank].precharge(now, timing_);
    openMask_ &= ~bankBit(flat_bank);
    // Open -> closed: the bank's row-hit entries (if any) and its
    // mismatched entries all become closed-bank demand.
    for (unsigned q = 0; q < 2; ++q) {
        rowHitWant_ -= openRowWant_[q][flat_bank];
        setOpenRowWant(q, flat_bank, 0);
        closedBankWant_ += bankWant_[q][flat_bank];
    }
    resetScanMemos();
    wakeAt_ = 0;
}

bool
Channel::enqueue(const DecodedAddr &dec, bool is_write, std::uint64_t tag,
                 Tick now)
{
    const unsigned flat_bank = dec.flatBank(org_);
    if (is_write) {
        // Coalesce with an already-queued write to the same line.
        for (auto &entry : writeQueue_) {
            if (entry.dec.row == dec.row && entry.dec.column == dec.column
                && entry.flatBank == flat_bank) {
                stats_.coalescedWrites.inc();
                return true;
            }
        }
        if (writeQueue_.size() >= queueDepth_)
            return false;
        writeQueue_.push_back({dec, tag, now, flat_bank});
        trackEnqueue(writeQueue_.back(), true);
        stats_.writes.inc();
        return true;
    }

    // Read: forward from the write queue when the line is still pending
    // there (the hardware controller's store-to-load forwarding). This is
    // what lets Palermo's east sibling read data whose ER writes were
    // issued but not yet committed to the array.
    for (const auto &entry : writeQueue_) {
        if (entry.dec.row == dec.row && entry.dec.column == dec.column
            && entry.flatBank == flat_bank) {
            stats_.forwardedReads.inc();
            stats_.reads.inc();
            const Tick finish = now + timing_.tCL;
            completions_.push_back({tag, finish, true});
            stats_.readLatency.sample(static_cast<double>(timing_.tCL));
            return true;
        }
    }
    if (readQueue_.size() >= queueDepth_)
        return false;
    readQueue_.push_back({dec, tag, now, flat_bank});
    trackEnqueue(readQueue_.back(), false);
    return true;
}

bool
Channel::nextWriteMode() const
{
    if (!writeMode_) {
        return writeQueue_.size() >= drainHigh_
            || (readQueue_.empty() && !writeQueue_.empty());
    }
    return !(writeQueue_.size() <= drainLow_
             || (writeQueue_.empty() && !readQueue_.empty()));
}

void
Channel::retireBeats(Tick now)
{
    while (!beats_.empty() && beats_.front().end <= now)
        beats_.pop_front();
    busActiveNow_ = !beats_.empty() && beats_.front().start <= now;
}

Tick
Channel::nextBusEdge() const
{
    if (beats_.empty())
        return kInvalid;
    return busActiveNow_ ? beats_.front().end : beats_.front().start;
}

void
Channel::tick(Tick now)
{
    stats_.totalTicks.inc();
    stats_.queueOccupancy.accumulate(
        static_cast<double>(occupancy()), 1);

    retireBeats(now);
    if (busActiveNow_)
        stats_.busBusyTicks.inc();

    if (refreshPending_ || now >= nextRefresh_) {
        handleRefresh(now);
        return;
    }

    writeMode_ = nextWriteMode();
    if (now < wakeAt_)
        return;

    Tick wake = kInvalid;
    bool issued;
    if (writeMode_) {
        issued = trySchedule(now, writeQueue_, true, &wake)
            || trySchedule(now, readQueue_, false, &wake);
    } else {
        issued = trySchedule(now, readQueue_, false, &wake)
            || trySchedule(now, writeQueue_, true, &wake);
    }
    // A command may have moved any bound: scan again next tick.
    wakeAt_ = issued ? 0 : wake;
}

std::uint64_t
Channel::tickWindow(Tick now, std::uint64_t cycles)
{
    std::uint64_t integral = 0;
    const Tick end = now + cycles;
    while (now < end) {
        // A quiet span [now, stop): no command can issue, no refresh is
        // due, the bus keeps its state and the drain mode is stable.
        // Occupancy is constant across it, so one step accounts it.
        retireBeats(now);
        const Tick stop =
            std::min({end, wakeAt_, nextRefresh_, nextBusEdge()});
        if (stop > now && !refreshPending_
            && nextWriteMode() == writeMode_) {
            const std::uint64_t span = stop - now;
            const std::size_t occ = occupancy();
            stats_.totalTicks.inc(span);
            stats_.queueOccupancy.accumulate(static_cast<double>(occ),
                                             span);
            if (busActiveNow_)
                stats_.busBusyTicks.inc(span);
            integral += occ * span;
            now = stop;
            continue;
        }
        tick(now);
        integral += occupancy();
        ++now;
    }
    return integral;
}

void
Channel::handleRefresh(Tick now)
{
    refreshPending_ = true;
    // Close open banks as their precharge constraints allow, then issue
    // the all-bank refresh.
    if (openMask_ != 0) {
        for (std::uint64_t m = openMask_; m != 0; m &= m - 1) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(m));
            if (banks_[b].canPrecharge(now))
                closeRow(b, now);
        }
        return;
    }
    for (auto &bank : banks_)
        bank.refresh(now, timing_);
    stats_.refreshes.inc();
    refreshPending_ = false;
    nextRefresh_ = now + timing_.tREFI;
    wakeAt_ = 0;
}

Tick
Channel::casGateAt(bool is_write) const
{
    Tick at = 0;
    if (lastCasValid_)
        at = lastCas_ + std::min(timing_.tCCD_L, timing_.tCCD_S);
    const Tick cas_lat = is_write ? timing_.tCWL : timing_.tCL;
    if (busFreeAt_ > cas_lat)
        at = std::max(at, busFreeAt_ - cas_lat);
    return at;
}

Tick
Channel::casReadyAt(unsigned bank, bool is_write) const
{
    Tick at = banks_[bank].nextColumnAt(is_write);
    const unsigned group = groupOf_[bank];
    // CAS-to-CAS spacing.
    if (lastCasValid_) {
        const unsigned gap = (group == lastCasBankGroup_)
            ? timing_.tCCD_L : timing_.tCCD_S;
        at = std::max(at, lastCas_ + gap);
    }
    // Write-to-read turnaround.
    if (!is_write && lastWriteValid_) {
        const unsigned wtr = (group == lastWriteBankGroup_)
            ? timing_.tWTR_L : timing_.tWTR_S;
        at = std::max(at, lastWriteDataEnd_ + wtr);
    }
    // Data bus must be free when this burst would start.
    const Tick cas_lat = is_write ? timing_.tCWL : timing_.tCL;
    if (busFreeAt_ > cas_lat)
        at = std::max(at, busFreeAt_ - cas_lat);
    return at;
}

Tick
Channel::actGateAt() const
{
    Tick at = 0;
    if (lastActValid_)
        at = lastAct_ + timing_.tRRD_S;
    if (actWindow_.size() >= 4)
        at = std::max(at, actWindow_.front() + timing_.tFAW);
    return at;
}

Tick
Channel::actReadyAt(unsigned bank) const
{
    Tick at = banks_[bank].nextActAt();
    if (lastActValid_ && groupOf_[bank] == lastActBankGroup_)
        at = std::max(at, lastAct_ + timing_.tRRD_L);
    return at;
}

Tick
Channel::entryReadyAt(const Entry &e, bool is_write) const
{
    const Bank &bank = banks_[e.flatBank];
    if (!bank.isOpen())
        return std::max(actGateAt(), actReadyAt(e.flatBank));
    if (bank.openRow() == e.dec.row)
        return casReadyAt(e.flatBank, is_write);
    return bank.nextPreAt();
}

void
Channel::recordCas(Tick now, const Entry &e, bool is_write)
{
    lastCas_ = now;
    lastCasBankGroup_ = e.dec.bankGroup;
    lastCasValid_ = true;

    const Tick data_start = now + (is_write ? timing_.tCWL : timing_.tCL);
    const Tick data_end = data_start + timing_.tBL;
    beats_.push_back({data_start, data_end});
    busFreeAt_ = data_end;

    if (is_write) {
        lastWriteDataEnd_ = data_end;
        lastWriteBankGroup_ = e.dec.bankGroup;
        lastWriteValid_ = true;
    }

    // Row-buffer outcome classification for this request.
    if (e.hadConflict)
        stats_.rowConflicts.inc();
    else if (e.hadActivate)
        stats_.rowMisses.inc();
    else
        stats_.rowHits.inc();
}

bool
Channel::tryColumn(Tick now, EntryQueue &queue, bool is_write, Tick *wake)
{
    // No queued entry anywhere targets an open row: nothing can pass
    // the open-row check, skip the scan. Only an ACT or an enqueue
    // creates a row hit.
    if (rowHitWant_ == 0)
        return false;
    // Every row hit was timing-blocked at the last failed scan and no
    // tracked event has moved a deadline earlier since.
    Tick &memo = is_write ? casRetryWrite_ : casRetryRead_;
    if (now < memo) {
        *wake = std::min(*wake, memo);
        return false;
    }
    // Entry-independent gates, hoisted out of the scan: no entry can
    // issue while the shortest CAS-to-CAS gap is pending or the data
    // bus is reserved past this burst's start.
    const Tick gate = casGateAt(is_write);
    if (now < gate) {
        *wake = std::min(*wake, gate);
        return false;
    }

    // Banks holding a row hit of this queue; the earliest tick one of
    // the others clears every CAS gate feeds the casRetry memo.
    Tick earliest = kInvalid;
    const std::uint64_t ready =
        readyBanks(hitMask_[is_write], now, &earliest,
                   [&](unsigned b) { return casReadyAt(b, is_write); });
    if (ready == 0) {
        // Gating state only pushes deadlines later between tracked
        // events, so "no hit in this queue can issue before `earliest`"
        // holds until an event resets the memo. kInvalid when this
        // queue holds no hits.
        memo = earliest;
        *wake = std::min(*wake, earliest);
        return false;
    }

    // The oldest row hit on a ready bank.
    const auto it = std::find_if(
        queue.begin(), queue.end(), [&](const Entry &e) {
            return (ready & bankBit(e.flatBank)) != 0
                && banks_[e.flatBank].openRow() == e.dec.row;
        });
    const Entry entry = *it;
    banks_[entry.flatBank].column(now, is_write, timing_);
    recordCas(now, entry, is_write);
    if (!is_write) {
        const Tick finish = now + timing_.tCL + timing_.tBL;
        completions_.push_back({entry.tag, finish, false});
        stats_.reads.inc();
        stats_.readLatency.sample(
            static_cast<double>(finish - entry.enqueueTick));
    }
    trackDequeue(entry, is_write);
    queue.erase(it);
    return true;
}

bool
Channel::tryActivate(Tick now, EntryQueue &queue, bool is_write,
                     Tick *wake)
{
    // No queued entry anywhere sits on a closed bank: no ACT possible
    // until a precharge or an enqueue creates closed-bank demand.
    if (closedBankWant_ == 0)
        return false;
    // Entry-independent ACT gates (tRRD_S, tFAW), hoisted out of the
    // scan; actReadyAt keeps the per-bank and tRRD_L checks.
    const Tick gate = actGateAt();
    if (now < gate) {
        *wake = std::min(*wake, gate);
        return false;
    }

    Tick earliest = kInvalid;
    const std::uint64_t ready =
        readyBanks(wantMask_[is_write] & ~openMask_, now, &earliest,
                   [&](unsigned b) { return actReadyAt(b); });
    if (ready == 0) {
        *wake = std::min(*wake, earliest);
        return false;
    }

    // The oldest entry on a ready (closed) bank.
    Entry &entry = *std::find_if(
        queue.begin(), queue.end(),
        [&](const Entry &e) { return (ready & bankBit(e.flatBank)) != 0; });
    const unsigned b = entry.flatBank;
    banks_[b].activate(now, entry.dec.row, timing_);
    openMask_ |= bankBit(b);
    // Closed -> open: the bank's entries leave the closed-bank class;
    // those matching the fresh row (exact counts from the (queue, bank,
    // row) table — one probe per queue) become row hits.
    for (unsigned q = 0; q < 2; ++q) {
        const std::uint32_t *want =
            rowWant_.findValue(rowKey(q == 1, b, entry.dec.row));
        const std::uint32_t hits = want != nullptr ? *want : 0;
        setOpenRowWant(q, b, hits);
        rowHitWant_ += hits;
        closedBankWant_ -= bankWant_[q][b];
    }
    resetScanMemos();
    entry.hadActivate = true;
    lastAct_ = now;
    lastActBankGroup_ = entry.dec.bankGroup;
    lastActValid_ = true;
    actWindow_.push_back(now);
    if (actWindow_.size() > 4)
        actWindow_.pop_front();
    return true;
}

bool
Channel::tryPrecharge(Tick now, EntryQueue &queue, bool is_write,
                      Tick *wake)
{
    // Precharge needs an entry whose bank is open at a different row —
    // the class that is neither a row hit nor closed-bank demand. Empty
    // class (counted across both queues): skip the scan. Only an ACT or
    // an enqueue fills it.
    if (occupancy() == rowHitWant_ + closedBankWant_)
        return false;
    // Every candidate bank was timing-blocked at the last failed sweep
    // and nothing has changed since: the sweep cannot succeed yet.
    if (now < preRetryAt_) {
        *wake = std::min(*wake, preRetryAt_);
        return false;
    }

    // Whether a bank may be closed is entry-independent: it is open,
    // some queue wants it, no queued request wants its open row
    // (FR-FCFS), and its precharge timing is met. An entry on such a
    // bank always mismatches the open row, so the first entry in queue
    // order on a ready bank is the first entry that may precharge.
    // Banks nobody queues for are left out; that also lets the memo arm
    // while they sit open and idle.
    const std::uint64_t candidates = openMask_
        & ~(hitMask_[0] | hitMask_[1]) & (wantMask_[0] | wantMask_[1]);
    // Earliest precharge deadline among candidates blocked only on
    // timing, for the preRetryAt_ memo. Candidates are open, so
    // canPrecharge(now) is now >= nextPreAt().
    Tick earliest = kInvalid;
    const std::uint64_t ready =
        readyBanks(candidates, now, &earliest,
                   [&](unsigned b) { return banks_[b].nextPreAt(); });
    if (ready == 0) {
        // No bank is eligible now; none can become eligible before the
        // earliest deadline absent a tracked event (which resets the
        // memo). kInvalid when only an event can create a candidate.
        preRetryAt_ = earliest;
        *wake = std::min(*wake, earliest);
        return false;
    }
    if ((ready & wantMask_[is_write]) == 0) {
        // A ready bank's demand sits in the other queue, which takes it
        // this tick: leave the memo disarmed and allow no skip.
        *wake = std::min(*wake, now);
        return false;
    }
    Entry &entry = *std::find_if(
        queue.begin(), queue.end(),
        [&](const Entry &e) { return (ready & bankBit(e.flatBank)) != 0; });
    closeRow(entry.flatBank, now);
    entry.hadConflict = true;
    return true;
}

bool
Channel::trySchedule(Tick now, EntryQueue &queue, bool is_write,
                     Tick *wake)
{
    if (queue.empty())
        return false;
    return tryColumn(now, queue, is_write, wake)
        || tryActivate(now, queue, is_write, wake)
        || tryPrecharge(now, queue, is_write, wake);
}

} // namespace palermo
