/**
 * @file
 * The 3xN PE-mesh timing model (paper §V): per-PE state machines,
 * per-tree commit ordering across columns, crypto-pipeline occupancy,
 * and the DRAM completion plumbing.
 */

#include "controller/palermo_controller.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace palermo {

PalermoController::PalermoController(std::unique_ptr<PalermoOram> protocol,
                                     const PalermoControllerConfig &config)
    : protocol_(std::move(protocol)), config_(config)
{
    palermo_assert(protocol_ != nullptr);
    palermo_assert(config.columns >= 1 && config.columns <= 64,
                   "one ready-mask bit per PE column");
    pes_.resize(config.columns);
    cols_.resize(config.columns);
    clearedThrough_ = {0, 0, 0};
    stats_.leafSpace = protocol_->hierarchy().dataLeaves();
}

bool
PalermoController::canAccept() const
{
    // Ring claiming: requests occupy columns strictly in order, so the
    // next request needs the next ring column to be free.
    const unsigned col =
        static_cast<unsigned>(nextGid_ % config_.columns);
    return !cols_[col].busy;
}

void
PalermoController::push(BlockId pa, bool write, std::uint64_t value,
                        bool dummy)
{
    if (!dummy && protocol_->filterHit(pa, write, value)) {
        ++stats_.llcHits;
        ++stats_.served;
        return;
    }
    const bool prefetching = protocol_->config().prefetchLen > 1;
    if (!dummy && prefetching) {
        const BlockId block = protocol_->decompose(pa)[kLevelData];
        const auto it = inFlightBlocks_.find(block);
        if (it != inFlightBlocks_.end() && it->second > 0) {
            // Miss merges into the outstanding fill of its widened
            // block: all of the block's lines return with that fill.
            ++stats_.llcHits;
            ++stats_.served;
            return;
        }
    }
    palermo_assert(canAccept(), "push into a busy ring column");
    const unsigned col =
        static_cast<unsigned>(nextGid_ % config_.columns);
    ColumnCtx &ctx = cols_[col];
    ctx = ColumnCtx{};
    ctx.busy = true;
    ctx.gid = nextGid_++;
    ctx.pa = pa;
    ctx.ids = protocol_->decompose(pa);
    if (prefetching && !dummy)
        ++inFlightBlocks_[ctx.ids[kLevelData]];
    ctx.write = write;
    ctx.value = value;
    ctx.dummy = dummy;
    ctx.startTick = kTickNever; // Set on first tick.

    for (unsigned level = 0; level < kHierLevels; ++level) {
        // Reset in place: pe.plan keeps its buffer capacities and is
        // overwritten by beginLevelInto() in the critical section.
        PeState &pe = pes_[col][level];
        pe.stage = PeStage::WaitLeaf;
        pe.opIdx = 0;
        pe.outstanding = 0;
        pe.leafReadyAt = kTickNever;
        pe.cleared = false;
        wake(col, level);
    }
    ++activeColumns_;
    maxActiveColumns_ = std::max(maxActiveColumns_, activeColumns_);
}

Phase *
PalermoController::issuingPhase(PeState &pe)
{
    PhaseKind kind;
    switch (pe.stage) {
      case PeStage::IssueLm: kind = PhaseKind::LoadMeta; break;
      case PeStage::IssueErRead: kind = PhaseKind::ResetRead; break;
      case PeStage::IssueErWrite: kind = PhaseKind::ResetWrite; break;
      case PeStage::IssueRp: kind = PhaseKind::ReadPath; break;
      case PeStage::IssueEpRead: kind = PhaseKind::EvictRead; break;
      case PeStage::IssueEpWrite: kind = PhaseKind::EvictWrite; break;
      default: return nullptr;
    }
    for (Phase &phase : pe.plan.phases) {
        if (phase.kind == kind)
            return &phase;
    }
    return nullptr;
}

void
PalermoController::clearSibling(unsigned level, std::uint64_t gid)
{
    palermo_assert(clearedThrough_[level] == gid,
                   "sibling token passed out of order");
    clearedThrough_[level] = gid + 1;
    wake(static_cast<unsigned>((gid + 1) % config_.columns), level);
}

void
PalermoController::issueOps(unsigned col, unsigned level, PeState &pe,
                            DramSystem &dram)
{
    Phase *phase = issuingPhase(pe);
    if (phase == nullptr)
        return;
    unsigned issued = 0;
    while (issued < config_.issuePerPe && pe.opIdx < phase->ops.size()) {
        const MemOp &op = phase->ops[pe.opIdx];
        if (op.write) {
            if (!dram.enqueue(op.addr, true, 0))
                break;
            ++stats_.issuedWrites;
        } else {
            const std::uint64_t tag = nextTag_++;
            if (!dram.enqueue(op.addr, false, tag))
                break;
            tagMap_[tag] = (static_cast<std::uint32_t>(col) << 2) | level;
            ++pe.outstanding;
            ++stats_.issuedReads;
        }
        ++pe.opIdx;
        ++issued;
    }
}

void
PalermoController::stepPe(unsigned col, unsigned level, DramSystem &dram)
{
    PeState &pe = pes_[col][level];
    ColumnCtx &ctx = cols_[col];
    const Tick now = dram.now();

    // Allow several zero-cost transitions per cycle, but a single issue
    // window (issueOps) per cycle.
    bool issued_this_cycle = false;
    for (int guard = 0; guard < 16; ++guard) {
        switch (pe.stage) {
          case PeStage::Idle:
          case PeStage::Finalized:
            return;

          case PeStage::WaitLeaf:
            if (level == kLevelPos2) {
                // CP against the on-chip PosMap3.
                if (pe.leafReadyAt == kTickNever) {
                    pe.leafReadyAt = now + config_.posmap3Latency;
                    return;
                }
                if (now < pe.leafReadyAt)
                    return;
            } else if (config_.swMode) {
                // Software: the next level starts only after the child
                // level's ORAM access fully completes.
                if (!ctx.finalized[level + 1])
                    return;
            } else {
                // Hardware CP: the child's ReadPath response carries the
                // leaf.
                if (!ctx.rpDone[level + 1])
                    return;
            }
            pe.stage = PeStage::WaitSibling;
            break;

          case PeStage::WaitSibling:
            // West->east tree-write token, in CommitHead order. The
            // software variant additionally spins on the global
            // CommitHead (Algorithm 2 line 4): request g+1 enters only
            // after request g released the whole-hierarchy lock.
            if (config_.swMode && swGlobalCleared_ != ctx.gid)
                return;
            if (clearedThrough_[level] != ctx.gid)
                return;
            // Critical section: functional leaf resolve + remap +
            // pre-check reshuffles, applied in per-tree commit order.
            protocol_->beginLevelInto(level, ctx.ids[level], &pe.plan);
            if (level == kLevelData) {
                // The plan's old leaf is the path ReadPath will touch:
                // this is the commit-ordered attacker-visible address.
                stats_.observeLeaf(pe.plan.oldLeaf);
                ctx.readValue =
                    protocol_->finishData(ctx.pa, ctx.write, ctx.value);
            }
            pe.opIdx = 0;
            pe.stage = PeStage::IssueLm;
            break;

          case PeStage::IssueLm:
          case PeStage::IssueErRead:
          case PeStage::IssueErWrite:
          case PeStage::IssueRp:
          case PeStage::IssueEpRead:
          case PeStage::IssueEpWrite: {
            Phase *phase = issuingPhase(pe);
            const std::size_t total = phase ? phase->ops.size() : 0;
            if (pe.opIdx < total) {
                if (issued_this_cycle)
                    return;
                issueOps(col, level, pe, dram);
                issued_this_cycle = true;
                if (pe.opIdx < total)
                    return; // Backpressure or width limit; retry next cycle.
            }
            // Phase fully issued: transition.
            pe.opIdx = 0;
            switch (pe.stage) {
              case PeStage::IssueLm:
                pe.stage = PeStage::WaitLm;
                break;
              case PeStage::IssueErRead:
                pe.stage = PeStage::WaitErRead;
                break;
              case PeStage::IssueErWrite:
                // HW: issuing the ER writes passes the tree to the east
                // sibling (unless an EvictPath extends the write phase).
                if (!config_.swMode && !pe.plan.hasEvict && !pe.cleared) {
                    clearSibling(level, ctx.gid);
                    pe.cleared = true;
                }
                pe.stage = PeStage::IssueRp;
                break;
              case PeStage::IssueRp:
                // SW: the coarse per-tree lock spans the PosMap check
                // through RP issue; release it here. The global
                // CommitHead is released by the last (data) level.
                if (config_.swMode && !pe.plan.hasEvict && !pe.cleared) {
                    clearSibling(level, ctx.gid);
                    pe.cleared = true;
                    if (level == kLevelData)
                        releaseGlobal(ctx.gid);
                }
                pe.stage = PeStage::WaitRp;
                break;
              case PeStage::IssueEpRead:
                pe.stage = PeStage::WaitEpRead;
                break;
              case PeStage::IssueEpWrite:
                if (!pe.cleared) {
                    clearSibling(level, ctx.gid);
                    pe.cleared = true;
                }
                if (config_.swMode && level == kLevelData)
                    releaseGlobal(ctx.gid);
                pe.stage = PeStage::Finalized;
                ctx.finalized[level] = true;
                wakeParent(col, level);
                break;
              default:
                panic("unreachable issue stage");
            }
            break;
          }

          case PeStage::WaitLm:
            if (pe.outstanding > 0)
                return;
            pe.stage = PeStage::IssueErRead;
            break;

          case PeStage::WaitErRead:
            if (pe.outstanding > 0)
                return;
            pe.stage = PeStage::IssueErWrite;
            break;

          case PeStage::WaitRp:
            if (pe.outstanding > 0)
                return;
            // RP response: leaf to the parent / data to the LLC.
            if (!ctx.rpDone[level]) {
                ctx.rpDone[level] = true;
                if (level == kLevelData) {
                    ctx.responseTick = now + config_.decryptLatency;
                }
            }
            if (pe.plan.hasEvict) {
                pe.stage = PeStage::IssueEpRead;
            } else {
                pe.stage = PeStage::Finalized;
                ctx.finalized[level] = true;
            }
            wakeParent(col, level);
            break;

          case PeStage::WaitEpRead:
            if (pe.outstanding > 0)
                return;
            pe.stage = PeStage::IssueEpWrite;
            break;
        }
    }
}

bool
PalermoController::parked(unsigned col, unsigned level) const
{
    const PeState &pe = pes_[col][level];
    const ColumnCtx &ctx = cols_[col];
    switch (pe.stage) {
      case PeStage::Idle:
      case PeStage::Finalized:
        return true;
      case PeStage::WaitLeaf:
        if (level == kLevelPos2)
            return false; // PosMap3 lookup: a timer, not an event.
        return config_.swMode ? !ctx.finalized[level + 1]
                              : !ctx.rpDone[level + 1];
      case PeStage::WaitSibling:
        return (config_.swMode && swGlobalCleared_ != ctx.gid)
            || clearedThrough_[level] != ctx.gid;
      case PeStage::WaitLm:
      case PeStage::WaitErRead:
      case PeStage::WaitRp:
      case PeStage::WaitEpRead:
        return pe.outstanding > 0;
      default:
        return false; // Issue stages retry every cycle.
    }
}

void
PalermoController::releaseGlobal(std::uint64_t gid)
{
    swGlobalCleared_ = gid + 1;
    // Any column's WaitSibling may be waiting on it.
    const std::uint64_t all = ~std::uint64_t{0} >> (64 - config_.columns);
    ready_.fill(all);
}

void
PalermoController::tryRetire(Tick now)
{
    for (;;) {
        const unsigned col =
            static_cast<unsigned>(commitHead_ % config_.columns);
        ColumnCtx &ctx = cols_[col];
        if (!ctx.busy || ctx.gid != commitHead_)
            return;
        for (unsigned level = 0; level < kHierLevels; ++level) {
            if (!ctx.finalized[level])
                return;
        }
        // Retire in CommitHead order.
        if (protocol_->config().prefetchLen > 1 && !ctx.dummy) {
            auto it = inFlightBlocks_.find(ctx.ids[kLevelData]);
            if (it != inFlightBlocks_.end() && --it->second == 0)
                inFlightBlocks_.erase(it);
        }
        const Tick response =
            ctx.responseTick == kTickNever ? now : ctx.responseTick;
        const double latency =
            static_cast<double>(response - ctx.startTick);
        if (ctx.dummy) {
            ++stats_.dummies;
        } else {
            ++stats_.served;
            stats_.latency.sample(latency);
            bool from_stash = false;
            for (unsigned level = 0; level < kHierLevels; ++level) {
                const PeState &pe = pes_[col][level];
                if (pe.plan.level == kLevelData)
                    from_stash = pe.plan.servedFromStash;
            }
            stats_.samples.push_back({latency, from_stash});
        }
        ctx.busy = false;
        --activeColumns_;
        ++commitHead_;
    }
}

Tick
PalermoController::nextEventAt(Tick now) const
{
    // An idle tick steps no PE, so bits a retired column left set
    // (clearSibling, releaseGlobal) do not count.
    if (activeColumns_ == 0)
        return kTickNever;
    for (const std::uint64_t mask : ready_)
        if (mask != 0)
            return now;
    return kTickNever;
}

void
PalermoController::tickSpan(std::uint64_t cycles, std::uint64_t busy)
{
    // `cycles` iterations of tick() with an empty ready mask: the idle
    // early-return, or the data-level attribution and no PE step.
    stats_.totalCycles += cycles;
    if (activeColumns_ == 0) {
        stats_.idleCycles += cycles;
        return;
    }
    palermo_assert(nextEventAt(0) == kTickNever,
                   "span over a controller that can act");
    stats_.dramCycles[kLevelData] += busy;
    stats_.syncCycles[kLevelData] += cycles - busy;
}

void
PalermoController::tick(DramSystem &dram)
{
    ++stats_.totalCycles;
    if (activeColumns_ == 0) {
        ++stats_.idleCycles;
        return;
    }
    if (dram.dataBusActive())
        ++stats_.dramCycles[kLevelData];
    else
        ++stats_.syncCycles[kLevelData];

    const Tick now = dram.now();
    for (ColumnCtx &ctx : cols_) {
        if (ctx.busy && ctx.startTick == kTickNever)
            ctx.startTick = now;
    }

    // Step deepest levels first so leaf responses propagate north within
    // the same cycle when timing allows. Only ready PEs step; the mask
    // is re-read after each step, which may wake a later column.
    for (unsigned level = kHierLevels; level-- > 0;) {
        for (std::uint64_t left = ready_[level]; left != 0;) {
            const unsigned col = static_cast<unsigned>(std::countr_zero(left));
            stepPe(col, level, dram);
            if (parked(col, level))
                ready_[level] &= ~(std::uint64_t{1} << col);
            left = ready_[level] & (~std::uint64_t{1} << col);
        }
    }
    tryRetire(now);
}

void
PalermoController::onCompletion(std::uint64_t tag)
{
    auto it = tagMap_.find(tag);
    palermo_assert(it != tagMap_.end(), "unknown completion tag");
    const unsigned col = it->second >> 2;
    const unsigned level = it->second & 3;
    tagMap_.erase(it);
    PeState &pe = pes_[col][level];
    palermo_assert(pe.outstanding > 0, "completion without outstanding");
    if (--pe.outstanding == 0)
        wake(col, level);
}

bool
PalermoController::idle() const
{
    return activeColumns_ == 0;
}

const Stash &
PalermoController::stashOf(unsigned level) const
{
    return protocol_->stashOf(level);
}

Stash &
PalermoController::stashOf(unsigned level)
{
    return protocol_->stashOf(level);
}

} // namespace palermo
