/**
 * @file
 * FR-FCFS scheduling, write-drain hysteresis, tRRD/tFAW windows,
 * CAS-to-CAS gating, refresh, and the wake-tick / event-to-event
 * advancement for one DDR4 channel.
 */

#include "mem/channel.hh"

#include <algorithm>

#include "common/log.hh"

namespace palermo {

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
      rowWant_(&pool_),
      openRowWant_(org.banksPerChannel(), 0),
      bankWant_(org.banksPerChannel(), 0),
      actWindow_(PoolAllocator<Tick>(&pool_)),
      nextRefresh_(timing.tREFI),
      drainHigh_(std::max(2u, queue_depth * 3 / 4)),
      drainLow_(std::max(1u, queue_depth / 4)),
      beats_(PoolAllocator<Beat>(&pool_))
{
    readQueue_.reserve(queue_depth);
    writeQueue_.reserve(queue_depth);
}

bool
Channel::canEnqueue(bool is_write) const
{
    const auto &queue = is_write ? writeQueue_ : readQueue_;
    return queue.size() < queueDepth_;
}

void
Channel::trackEnqueue(const Entry &e, bool is_write)
{
    ++rowWant_[rowKey(e.flatBank, e.dec.row)];
    ++bankWant_[e.flatBank];
    const Bank &bank = banks_[e.flatBank];
    if (!bank.isOpen()) {
        ++closedBankWant_;
    } else if (bank.openRow() == e.dec.row) {
        ++openRowWant_[e.flatBank];
        ++rowHitWant_;
    }
    resetScanMemos();
    // Only the new entry can make a command issue earlier.
    wakeAt_ = std::min(wakeAt_, entryReadyAt(e, is_write));
}

void
Channel::trackDequeue(const Entry &e)
{
    const auto it = rowWant_.find(rowKey(e.flatBank, e.dec.row));
    if (--it->second == 0)
        rowWant_.erase(it);
    --bankWant_[e.flatBank];
    const Bank &bank = banks_[e.flatBank];
    if (!bank.isOpen()) {
        --closedBankWant_;
    } else if (bank.openRow() == e.dec.row) {
        --openRowWant_[e.flatBank];
        --rowHitWant_;
    }
    resetScanMemos();
}

void
Channel::closeRow(std::size_t flat_bank, Tick now)
{
    banks_[flat_bank].precharge(now, timing_);
    // Open -> closed: the bank's row-hit entries (if any) and its
    // mismatched entries all become closed-bank demand.
    rowHitWant_ -= openRowWant_[flat_bank];
    openRowWant_[flat_bank] = 0;
    closedBankWant_ += bankWant_[flat_bank];
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
    bool any_open = false;
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        if (banks_[b].isOpen()) {
            any_open = true;
            if (banks_[b].canPrecharge(now)) {
                closeRow(b, now);
            }
        }
    }
    if (any_open)
        return;
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
Channel::casReadyAt(const Entry &e, bool is_write) const
{
    Tick at = banks_[e.flatBank].nextColumnAt(is_write);
    // CAS-to-CAS spacing.
    if (lastCasValid_) {
        const unsigned gap = (e.dec.bankGroup == lastCasBankGroup_)
            ? timing_.tCCD_L : timing_.tCCD_S;
        at = std::max(at, lastCas_ + gap);
    }
    // Write-to-read turnaround.
    if (!is_write && lastWriteValid_) {
        const unsigned wtr = (e.dec.bankGroup == lastWriteBankGroup_)
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
Channel::actReadyAt(const Entry &e) const
{
    Tick at = banks_[e.flatBank].nextActAt();
    if (lastActValid_ && e.dec.bankGroup == lastActBankGroup_)
        at = std::max(at, lastAct_ + timing_.tRRD_L);
    return at;
}

Tick
Channel::entryReadyAt(const Entry &e, bool is_write) const
{
    const Bank &bank = banks_[e.flatBank];
    if (!bank.isOpen())
        return std::max(actGateAt(), actReadyAt(e));
    if (bank.openRow() == e.dec.row)
        return casReadyAt(e, is_write);
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

    // Earliest tick a row hit of this queue clears every CAS gate,
    // piggy-backed on the scan for the casRetry memo.
    Tick earliest = kInvalid;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        const Entry &cand = *it;
        // Only row hits matter; one counter load filters the rest.
        if (openRowWant_[cand.flatBank] == 0)
            continue;
        if (banks_[cand.flatBank].openRow() != cand.dec.row)
            continue;
        const Tick ready = casReadyAt(cand, is_write);
        if (now < ready) {
            earliest = std::min(earliest, ready);
            continue;
        }
        const Entry entry = cand;
        banks_[entry.flatBank].column(now, is_write, timing_);
        recordCas(now, entry, is_write);
        if (!is_write) {
            const Tick finish = now + timing_.tCL + timing_.tBL;
            completions_.push_back({entry.tag, finish, false});
            stats_.reads.inc();
            stats_.readLatency.sample(
                static_cast<double>(finish - entry.enqueueTick));
        }
        trackDequeue(entry);
        queue.erase(it);
        return true;
    }
    // Gating state only pushes deadlines later between tracked events,
    // so "no hit in this queue can issue before `earliest`" holds until
    // an event resets the memo. kInvalid when this queue holds no hits.
    memo = earliest;
    *wake = std::min(*wake, earliest);
    return false;
}

bool
Channel::tryActivate(Tick now, EntryQueue &queue, Tick *wake)
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
    for (auto &entry : queue) {
        if (banks_[entry.flatBank].isOpen())
            continue;
        const Tick ready = actReadyAt(entry);
        if (now < ready) {
            earliest = std::min(earliest, ready);
            continue;
        }
        banks_[entry.flatBank].activate(now, entry.dec.row, timing_);
        // Closed -> open: the bank's entries leave the closed-bank
        // class; those matching the fresh row (exact count from the
        // (bank, row) table — one probe per ACT) become row hits.
        const std::uint32_t *want =
            rowWant_.findValue(rowKey(entry.flatBank, entry.dec.row));
        const std::uint32_t hits = want != nullptr ? *want : 0;
        openRowWant_[entry.flatBank] = hits;
        rowHitWant_ += hits;
        closedBankWant_ -= bankWant_[entry.flatBank];
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
    *wake = std::min(*wake, earliest);
    return false;
}

bool
Channel::tryPrecharge(Tick now, EntryQueue &queue, Tick *wake)
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
    // Short queues: the entry-major scan touches fewer banks than a
    // bank-major sweep would. A bank whose open row is still wanted
    // gives no bound: only a CAS (a command) can release it.
    if (queue.size() <= 8) {
        Tick earliest = kInvalid;
        for (auto &entry : queue) {
            Bank &bank = banks_[entry.flatBank];
            if (!bank.isOpen() || bank.openRow() == entry.dec.row)
                continue;
            // FR-FCFS: do not close a row other requests still want.
            if (openRowWanted(entry.flatBank))
                continue;
            if (!bank.canPrecharge(now)) {
                earliest = std::min(earliest, bank.nextPreAt());
                continue;
            }
            closeRow(entry.flatBank, now);
            entry.hadConflict = true;
            return true;
        }
        *wake = std::min(*wake, earliest);
        return false;
    }

    // Bank-major scan: whether a bank may be closed is entry-independent
    // (open, precharge timing met, open row wanted by no queued request —
    // an entry whose row IS the open row keeps it wanted, so a flagged
    // bank always mismatches every queued entry's row). The first entry
    // in queue order whose bank is flagged is exactly the entry the
    // original entry-major scan would have picked.
    prechargeOk_.assign(banks_.size(), 0);
    bool any = false;
    // Piggy-backed on the sweep: earliest precharge deadline among
    // demanded banks blocked only on timing, for the preRetryAt_ memo.
    Tick earliest = kInvalid;
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        // Banks nobody queues for can never match the entry scan below;
        // leaving them unflagged also lets the memo arm while they sit
        // open and idle.
        if (bankWant_[b] == 0)
            continue;
        Bank &bank = banks_[b];
        if (!bank.isOpen())
            continue;
        // FR-FCFS: do not close a row other requests still want.
        if (openRowWanted(b))
            continue;
        if (!bank.canPrecharge(now)) {
            earliest = std::min(earliest, bank.nextPreAt());
            continue;
        }
        prechargeOk_[b] = 1;
        any = true;
    }
    if (!any) {
        // No bank is eligible now; none can become eligible before the
        // earliest deadline absent a tracked event (which resets the
        // memo). kInvalid when only an event can create a candidate.
        preRetryAt_ = earliest;
        *wake = std::min(*wake, earliest);
        return false;
    }
    for (auto &entry : queue) {
        if (!prechargeOk_[entry.flatBank])
            continue;
        closeRow(entry.flatBank, now);
        entry.hadConflict = true;
        return true;
    }
    // A flagged bank is eligible now and its demand sits in the other
    // queue, which takes it this tick: leave the memo disarmed and
    // allow no skip.
    *wake = std::min(*wake, now);
    return false;
}

bool
Channel::trySchedule(Tick now, EntryQueue &queue, bool is_write,
                     Tick *wake)
{
    if (queue.empty())
        return false;
    return tryColumn(now, queue, is_write, wake)
        || tryActivate(now, queue, wake) || tryPrecharge(now, queue, wake);
}

} // namespace palermo
