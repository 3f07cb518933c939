/**
 * @file
 * Baseline serial timing (paper §III-A): one ORAM request at a time,
 * phase-by-phase issue with intra-phase read concurrency.
 */

#include "controller/serial_controller.hh"

#include "common/log.hh"

namespace palermo {

SerialController::SerialController(std::unique_ptr<Protocol> protocol,
                                   unsigned issue_width,
                                   std::size_t queue_limit,
                                   unsigned decrypt_latency)
    : protocol_(std::move(protocol)), issueWidth_(issue_width),
      queueLimit_(queue_limit), decryptLatency_(decrypt_latency),
      queue_(&pool_)
{
    palermo_assert(protocol_ != nullptr);
    palermo_assert(issue_width > 0 && queue_limit > 0);
    stats_.leafSpace = protocol_->dataLeaves();
}

bool
SerialController::canAccept() const
{
    return queue_.size() < queueLimit_;
}

void
SerialController::push(BlockId pa, bool write, std::uint64_t value,
                       bool dummy)
{
    palermo_assert(canAccept());
    // Functional conversion happens at admission; the serial execution
    // order equals admission order, so plan-time state is consistent.
    planScratch_.clear();
    protocol_->accessInto(pa, write, value, &planScratch_);
    for (RequestPlan &plan : planScratch_) {
        // Admission order is execution order here, so the data-level
        // path of each plan is the attacker-visible address in order.
        for (const LevelPlan &level : plan.levels)
            if (level.level == kLevelData)
                stats_.observeLeaf(level.oldLeaf);
        Pending pending;
        pending.plan = std::move(plan);
        pending.dummy = dummy || pending.plan.dummy;
        queue_.push_back(std::move(pending));
    }
}

unsigned
SerialController::currentLevel(const Pending &req) const
{
    if (req.levelIdx < req.plan.levels.size())
        return req.plan.levels[req.levelIdx].level;
    return kLevelData;
}

void
SerialController::retire(Pending &req, Tick now)
{
    if (req.plan.llcHit) {
        ++stats_.llcHits;
        ++stats_.served;
        protocol_->recyclePlan(std::move(req.plan));
        return;
    }
    const Tick response =
        req.responseTick == kTickNever ? now : req.responseTick;
    const double latency = static_cast<double>(response - req.startTick)
        + decryptLatency_;
    if (req.dummy) {
        ++stats_.dummies;
    } else {
        ++stats_.served;
        stats_.latency.sample(latency);
        bool from_stash = false;
        for (const LevelPlan &level : req.plan.levels) {
            if (level.level == kLevelData)
                from_stash = level.servedFromStash;
        }
        stats_.samples.push_back({latency, from_stash});
    }
    protocol_->recyclePlan(std::move(req.plan));
}

void
SerialController::advance(Pending &req, Tick now)
{
    while (req.levelIdx < req.plan.levels.size()) {
        const LevelPlan &level = req.plan.levels[req.levelIdx];
        if (req.phaseIdx >= level.phases.size()) {
            ++req.levelIdx;
            req.phaseIdx = 0;
            req.opIdx = 0;
            continue;
        }
        const Phase &phase = level.phases[req.phaseIdx];
        const bool issued = req.opIdx >= phase.ops.size();
        if (issued && req.outstandingReads == 0) {
            // Response point: the Data-level ReadPath completed.
            if (level.level == kLevelData
                && phase.kind == PhaseKind::ReadPath
                && req.responseTick == kTickNever) {
                req.responseTick = now;
            }
            ++req.phaseIdx;
            req.opIdx = 0;
            continue;
        }
        break;
    }
}

Tick
SerialController::nextEventAt(Tick now) const
{
    if (queue_.empty())
        return kTickNever;
    // A started request is past tick()'s LLC-hit retire, so it has a
    // level; advance() leaves it on a phase with ops to issue or reads
    // outstanding. Only the second waits on an event.
    const Pending &req = queue_.front();
    if (!req.started || req.outstandingReads == 0)
        return now;
    const LevelPlan &level = req.plan.levels[req.levelIdx];
    const bool issued =
        req.opIdx >= level.phases[req.phaseIdx].ops.size();
    return issued ? kTickNever : now;
}

void
SerialController::tickSpan(std::uint64_t cycles, std::uint64_t busy)
{
    // `cycles` iterations of tick() that reach no enqueue: the idle
    // early-return, or a parked request whose advance() and issue loop
    // both find nothing to do and leave only the cycle attribution.
    stats_.totalCycles += cycles;
    if (queue_.empty()) {
        stats_.idleCycles += cycles;
        return;
    }
    palermo_assert(nextEventAt(0) == kTickNever,
                   "span over a controller that can act");
    const unsigned level = currentLevel(queue_.front());
    stats_.dramCycles[level] += busy;
    stats_.syncCycles[level] += cycles - busy;
}

void
SerialController::tick(DramSystem &dram)
{
    ++stats_.totalCycles;
    if (queue_.empty()) {
        ++stats_.idleCycles;
        return;
    }

    Pending &req = queue_.front();
    const Tick now = dram.now();
    if (!req.started) {
        req.started = true;
        req.startTick = now;
    }

    if (req.plan.llcHit || req.plan.levels.empty()) {
        retire(req, now);
        queue_.pop_front();
        return;
    }

    // Cycle attribution: charge the level currently being served; a
    // cycle is "dram" if any channel moved data, else "ORAM-sync".
    const unsigned level = currentLevel(req);
    if (dram.dataBusActive())
        ++stats_.dramCycles[level];
    else
        ++stats_.syncCycles[level];

    advance(req, now);
    if (req.levelIdx >= req.plan.levels.size()) {
        retire(req, now);
        queue_.pop_front();
        return;
    }

    // Issue this phase's operations, up to the issue width, respecting
    // DRAM queue backpressure.
    LevelPlan &lp = req.plan.levels[req.levelIdx];
    Phase &phase = lp.phases[req.phaseIdx];
    unsigned issued_now = 0;
    while (issued_now < issueWidth_ && req.opIdx < phase.ops.size()) {
        const MemOp &op = phase.ops[req.opIdx];
        if (!dram.enqueue(op.addr, op.write, /*tag=*/0))
            break;
        if (op.write) {
            ++stats_.issuedWrites;
        } else {
            ++stats_.issuedReads;
            ++req.outstandingReads;
        }
        ++req.opIdx;
        ++issued_now;
    }
    advance(req, now);
    if (req.levelIdx >= req.plan.levels.size()) {
        retire(req, now);
        queue_.pop_front();
    }
}

void
SerialController::onCompletion(std::uint64_t tag)
{
    (void)tag;
    // Only one request executes at a time, so every read completion
    // belongs to its current phase.
    palermo_assert(!queue_.empty(), "completion with empty queue");
    Pending &req = queue_.front();
    palermo_assert(req.outstandingReads > 0,
                   "completion without outstanding read");
    --req.outstandingReads;
}

bool
SerialController::idle() const
{
    return queue_.empty();
}

const Stash &
SerialController::stashOf(unsigned level) const
{
    return protocol_->stashOf(level);
}

Stash &
SerialController::stashOf(unsigned level)
{
    return protocol_->stashOf(level);
}

} // namespace palermo
