/**
 * @file
 * Bounded admission queue for the oblivious KV serving layer.
 *
 * Sits between the clients (load generator, example drivers) and the
 * SimSession submit inbox: arrivals wait here until the service pump
 * hands them to the ORAM controller, and the bound is what turns
 * overload into backpressure instead of unbounded memory growth. Two
 * policies mirror the classic serving trade-off: Reject drops the
 * arrival at the door (open-loop clients count a rejection and move
 * on), Block reports "would block" so the caller holds the request and
 * retries — the closed-loop stall discipline.
 *
 * The queue is strictly FIFO across tenants: admission order equals
 * arrival-acceptance order, which the fairness tests pin down. Per-item
 * bookkeeping (arrival tick, tenant, sequence) rides along so the
 * service can attribute queueing delay and completions without a side
 * table.
 */

#ifndef PALERMO_SERVICE_REQUEST_QUEUE_HH
#define PALERMO_SERVICE_REQUEST_QUEUE_HH

#include <cstdint>
#include <deque>
#include <memory_resource>
#include <string>

#include "common/types.hh"

namespace palermo {

/** What to do with an arrival that finds the queue full. */
enum class QueuePolicy
{
    Reject, ///< Drop it and count a rejection (open-loop overload).
    Block,  ///< Report WouldBlock; the caller holds it and retries.
};

/** Short lowercase token for JSON/CLI ("reject" / "block"). */
const char *queuePolicyName(QueuePolicy policy);

/** Parse a policy token; returns false on unknown names. */
bool queuePolicyFromName(const std::string &name, QueuePolicy *policy);

/** One KV request as it travels through the service. */
struct ServiceRequest
{
    std::uint32_t tenant = 0;   ///< Namespace index.
    BlockId block = 0;          ///< Resolved protected-space line.
    bool write = false;
    std::uint64_t value = 0;
    Tick arrival = 0;           ///< Client-side issue tick.
    std::uint64_t sequence = 0; ///< Acceptance order (FIFO witness).
};

/** Outcome of presenting one arrival to the service. */
enum class Admission
{
    Accepted,
    Rejected,   ///< Dropped (Reject policy, queue full).
    WouldBlock, ///< Not taken (Block policy, queue full); retry later.
};

/**
 * Fixed-capacity FIFO with an explicit overload policy. Pure
 * mechanism: no clocks, no histograms — the service layer stamps
 * times and owns the statistics.
 */
class BoundedRequestQueue
{
  public:
    /**
     * @param capacity Maximum queued requests (> 0).
     * @param policy Overload behavior when an arrival finds it full.
     */
    BoundedRequestQueue(std::size_t capacity, QueuePolicy policy);

    /**
     * Present one arrival. Accepted requests get the next FIFO
     * sequence number stamped; Rejected ones are counted and dropped;
     * WouldBlock leaves all state untouched (retry with the same
     * request later).
     */
    Admission offer(const ServiceRequest &request);

    /** Remove and return the oldest queued request. */
    ServiceRequest pop();

    bool empty() const { return queue_.empty(); }
    bool full() const { return queue_.size() >= capacity_; }
    std::size_t size() const { return queue_.size(); }
    std::size_t capacity() const { return capacity_; }
    QueuePolicy policy() const { return policy_; }

    /** Arrivals accepted into the queue so far. */
    std::uint64_t accepted() const { return accepted_; }
    /** Arrivals dropped by the Reject policy. */
    std::uint64_t rejected() const { return rejected_; }
    /** Deepest occupancy observed. */
    std::size_t highWatermark() const { return highWatermark_; }

    /** Visit every queued request in FIFO order (oldest first). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const ServiceRequest &request : queue_)
            fn(request);
    }

  private:
    /** Backs queue_; declared before it. */
    std::pmr::unsynchronized_pool_resource pool_;
    /** Pool-backed FIFO: deque chunks recycle across the run instead of
     * hitting the heap on every admission wave. */
    std::pmr::deque<ServiceRequest> queue_;
    std::size_t capacity_;
    QueuePolicy policy_;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_ = 0;
    std::size_t highWatermark_ = 0;
};

} // namespace palermo

#endif // PALERMO_SERVICE_REQUEST_QUEUE_HH
