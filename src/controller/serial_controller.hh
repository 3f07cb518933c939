/**
 * @file
 * SerialController: the baseline multi-issue ORAM controller (paper
 * §III-A). It serves ORAM requests strictly one after another; within a
 * request, each phase's reads are issued concurrently but the next phase
 * waits for them, and trailing writes are posted without blocking — the
 * exact dependency structure whose stalls the paper measures as
 * "ORAM-sync" cycles.
 *
 * Drives any serial Protocol: PathORAM, RingORAM, PageORAM, PrORAM /
 * LAORAM, and IR-ORAM.
 */

#ifndef PALERMO_CONTROLLER_SERIAL_CONTROLLER_HH
#define PALERMO_CONTROLLER_SERIAL_CONTROLLER_HH

#include <deque>
#include <memory>
#include <memory_resource>
#include <vector>

#include "controller/controller.hh"
#include "oram/hierarchy.hh"
#include "oram/plan.hh"

namespace palermo {

/** Baseline one-request-at-a-time timing controller. */
class SerialController : public Controller
{
  public:
    /**
     * @param protocol The serial protocol to drive (owned).
     * @param issue_width Max DRAM enqueues per cycle.
     * @param queue_limit Admitted-but-unserved request cap.
     * @param decrypt_latency Cycles from last RP beat to response.
     */
    SerialController(std::unique_ptr<Protocol> protocol,
                     unsigned issue_width = 16, std::size_t queue_limit = 8,
                     unsigned decrypt_latency = 40);

    bool canAccept() const override;
    void push(BlockId pa, bool write, std::uint64_t value,
              bool dummy) override;
    void tick(DramSystem &dram) override;
    /** Parked: the front request has started, has issued every op of
     * its current phase and still has reads outstanding. */
    Tick nextEventAt(Tick now) const override;
    void tickSpan(std::uint64_t cycles, std::uint64_t busy) override;
    void onCompletion(std::uint64_t tag) override;
    bool idle() const override;
    const Stash &stashOf(unsigned level) const override;
    Stash &stashOf(unsigned level) override;

  private:
    struct Pending
    {
        RequestPlan plan;
        bool dummy = false;
        bool started = false;
        Tick startTick = 0;
        Tick responseTick = kTickNever;
        std::size_t levelIdx = 0;
        std::size_t phaseIdx = 0;
        std::size_t opIdx = 0;
        std::uint64_t outstandingReads = 0;
    };

    /** Advance through completed (or empty) phases. */
    void advance(Pending &req, Tick now);
    void retire(Pending &req, Tick now);
    unsigned currentLevel(const Pending &req) const;

    std::unique_ptr<Protocol> protocol_;
    unsigned issueWidth_;
    std::size_t queueLimit_;
    unsigned decryptLatency_;
    /** Backs queue_; declared before it. */
    std::pmr::unsynchronized_pool_resource pool_;
    std::pmr::deque<Pending> queue_;
    std::vector<RequestPlan> planScratch_; ///< push() staging buffer.
};

} // namespace palermo

#endif // PALERMO_CONTROLLER_SERIAL_CONTROLLER_HH
