/**
 * @file
 * Channel routing, per-tick advancement, completion delivery, and
 * aggregate bandwidth/row-hit statistics.
 */

#include "mem/dram_system.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "sim/parallel.hh"

namespace palermo {

namespace {

/** Stack bound on shards per epoch (keeps dispatch allocation-free). */
constexpr std::size_t kMaxTickShards = 64;

/**
 * One sharded advancement epoch: each shard owns a contiguous range of
 * channels and steps them through [start, start + cycles) before the
 * pool barrier. Outputs are indexed by shard (dynamic shard-to-thread
 * assignment), and summed in any order the total is exact — every
 * addend is a small integer occupancy.
 */
struct TickJob
{
    std::vector<std::unique_ptr<Channel>> *channels;
    Tick start;
    std::uint64_t cycles;
    unsigned shards;
    std::uint64_t *sums; ///< Per-shard occupancy integrals (or null).

    /** Contiguous [lo, hi) channel range of one shard. */
    void
    range(unsigned shard, std::size_t *lo, std::size_t *hi) const
    {
        const std::size_t n = channels->size();
        const std::size_t base = n / shards;
        const std::size_t extra = n % shards;
        *lo = shard * base + std::min<std::size_t>(shard, extra);
        *hi = *lo + base + (shard < extra ? 1 : 0);
    }

    static void
    runShard(void *ctx, unsigned shard)
    {
        const TickJob &job = *static_cast<const TickJob *>(ctx);
        std::size_t lo, hi;
        job.range(shard, &lo, &hi);
        std::uint64_t sum = 0;
        for (std::size_t c = lo; c < hi; ++c)
            sum += (*job.channels)[c]->tickWindow(job.start, job.cycles);
        if (job.sums != nullptr)
            job.sums[shard] = sum;
    }
};

} // namespace

double
DramSnapshot::rowHitRate() const
{
    const auto total = rowHits + rowMisses + rowConflicts;
    return total ? static_cast<double>(rowHits) / total : 0.0;
}

double
DramSnapshot::rowConflictRate() const
{
    const auto total = rowHits + rowMisses + rowConflicts;
    return total ? static_cast<double>(rowConflicts) / total : 0.0;
}

double
DramSnapshot::busUtilization() const
{
    return totalTicks
        ? static_cast<double>(busBusyTicks) / totalTicks : 0.0;
}

DramSystem::DramSystem(const DramConfig &config)
    : config_(config), map_(config.org, config.policy)
{
    palermo_assert(config.org.channels > 0);
    channels_.reserve(config.org.channels);
    for (unsigned c = 0; c < config.org.channels; ++c) {
        channels_.push_back(std::make_unique<Channel>(
            config.org, config.timing, config.queueDepth));
    }
}

bool
DramSystem::enqueue(Addr addr, bool is_write, std::uint64_t tag)
{
    const DecodedAddr dec = map_.decode(addr);
    return channels_[dec.channel]->enqueue(dec, is_write, tag, now_);
}

void
DramSystem::tick()
{
    for (auto &channel : channels_)
        channel->tick(now_);
    ++now_;
}

void
DramSystem::tickParallel(WorkerPool &pool)
{
    // Sharding an all-idle cycle costs more than the idle ticks do;
    // the gate depends only on simulation state, so serial and
    // parallel runs take it identically.
    if (pool.threads() <= 1 || channels_.size() <= 1
        || occupancy() == 0) {
        tick();
        return;
    }
    const unsigned shards = static_cast<unsigned>(std::min(
        {static_cast<std::size_t>(pool.threads()), channels_.size(),
         kMaxTickShards}));
    TickJob job{&channels_, now_, 1, shards, nullptr};
    pool.run(&TickJob::runShard, &job, shards);
    ++now_;
}

std::uint64_t
DramSystem::tickWindow(WorkerPool *pool, std::uint64_t cycles)
{
    // The window is cross-channel quiet (caller-proven), so each shard
    // may advance its channels through all `cycles` before the single
    // barrier. Run serially when the pool is trivial or the window is
    // too short to amortize a barrier.
    const std::size_t n = channels_.size();
    std::uint64_t integral = 0;
    if (pool == nullptr || pool->threads() <= 1 || n <= 1
        || cycles < 8) {
        for (auto &channel : channels_)
            integral += channel->tickWindow(now_, cycles);
    } else {
        const unsigned shards = static_cast<unsigned>(std::min(
            {static_cast<std::size_t>(pool->threads()), n,
             kMaxTickShards}));
        std::uint64_t sums[kMaxTickShards] = {};
        TickJob job{&channels_, now_, cycles, shards, sums};
        pool->run(&TickJob::runShard, &job, shards);
        for (unsigned s = 0; s < shards; ++s)
            integral += sums[s];
    }
    now_ += cycles;
    return integral;
}

Tick
DramSystem::visibleHorizon(Tick next) const
{
    const Tick cas = std::min(config_.timing.tCL, config_.timing.tCWL);
    Tick horizon = nextDue_;
    for (const auto &channel : channels_) {
        for (const Completion &completion : channel->completions())
            horizon = std::min(horizon, completion.finishTick);
        horizon = std::min(horizon, channel->nextCommandAt(next) + cas);
    }
    return horizon;
}

std::uint64_t
DramSystem::busyTicksIn(Tick from, Tick to) const
{
    // 64 ticks at a time: OR every channel's beats into one mask of
    // covered ticks, so a tick two channels cover counts once. Each
    // channel's beats are in start order, so its scan stops at the
    // first beat past the chunk.
    std::uint64_t busy = 0;
    for (Tick lo = from; lo < to; lo += 64) {
        const Tick hi = std::min<Tick>(to, lo + 64);
        std::uint64_t covered = 0;
        for (const auto &channel : channels_) {
            for (const Beat &beat : channel->beats()) {
                if (beat.start >= hi)
                    break;
                if (beat.end <= lo)
                    continue;
                const Tick first = std::max(beat.start, lo) - lo;
                const Tick width = std::min(beat.end, hi) - lo - first;
                const std::uint64_t run = width == 64
                    ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
                covered |= run << first;
            }
        }
        busy += static_cast<std::uint64_t>(std::popcount(covered));
    }
    return busy;
}

bool
DramSystem::readQuiescent() const
{
    if (!pending_.empty())
        return false;
    for (const auto &channel : channels_) {
        if (!channel->readQuiescent())
            return false;
    }
    return true;
}

const std::vector<Completion> &
DramSystem::drainCompletions()
{
    // Move channel completions whose finish tick has passed into the
    // ready list; keep future ones pending (reads complete at
    // issue + tCL + tBL, which is later than the CAS issue tick).
    for (auto &channel : channels_) {
        auto &list = channel->completions();
        for (const Completion &completion : list) {
            pending_.push_back(completion);
            nextDue_ = std::min(nextDue_, completion.finishTick);
        }
        list.clear();
    }
    ready_.clear();
    // Nothing due: the partition below would move nothing.
    if (nextDue_ > now_)
        return ready_;
    auto split = std::partition(
        pending_.begin(), pending_.end(),
        [this](const Completion &c) { return c.finishTick > now_; });
    ready_.assign(split, pending_.end());
    pending_.erase(split, pending_.end());
    nextDue_ = kInvalid;
    for (const Completion &completion : pending_)
        nextDue_ = std::min(nextDue_, completion.finishTick);
    std::sort(ready_.begin(), ready_.end(),
              [](const Completion &a, const Completion &b) {
                  return a.finishTick < b.finishTick;
              });
    return ready_;
}

bool
DramSystem::dataBusActive() const
{
    for (const auto &channel : channels_) {
        if (channel->dataBusActive())
            return true;
    }
    return false;
}

std::size_t
DramSystem::occupancy() const
{
    std::size_t total = 0;
    for (const auto &channel : channels_)
        total += channel->occupancy();
    return total;
}

void
DramSystem::resetStats()
{
    for (auto &channel : channels_)
        channel->stats().reset();
}

DramSnapshot
DramSystem::snapshot() const
{
    DramSnapshot snap;
    double occ = 0.0;
    double latency = 0.0;
    std::uint64_t latency_samples = 0;
    for (const auto &channel : channels_) {
        const ChannelStats &s = channel->stats();
        snap.reads += s.reads.value();
        snap.writes += s.writes.value();
        snap.rowHits += s.rowHits.value();
        snap.rowMisses += s.rowMisses.value();
        snap.rowConflicts += s.rowConflicts.value();
        snap.forwardedReads += s.forwardedReads.value();
        snap.busBusyTicks += s.busBusyTicks.value();
        snap.totalTicks = std::max(snap.totalTicks, s.totalTicks.value());
        occ += s.queueOccupancy.mean();
        latency += s.readLatency.mean() * s.readLatency.count();
        latency_samples += s.readLatency.count();
    }
    // Bus utilization denominator: each channel contributes its ticks.
    snap.totalTicks *= channels_.size();
    snap.avgQueueOccupancy = occ;
    snap.avgReadLatency =
        latency_samples ? latency / latency_samples : 0.0;
    return snap;
}

} // namespace palermo
