/**
 * @file
 * BoundedRequestQueue: FIFO mechanics and overload-policy accounting.
 */

#include "service/request_queue.hh"

#include <algorithm>

#include "common/log.hh"

namespace palermo {

const char *
queuePolicyName(QueuePolicy policy)
{
    switch (policy) {
      case QueuePolicy::Reject: return "reject";
      case QueuePolicy::Block: return "block";
    }
    return "reject";
}

bool
queuePolicyFromName(const std::string &name, QueuePolicy *policy)
{
    if (name == "reject") {
        *policy = QueuePolicy::Reject;
        return true;
    }
    if (name == "block") {
        *policy = QueuePolicy::Block;
        return true;
    }
    return false;
}

BoundedRequestQueue::BoundedRequestQueue(std::size_t capacity,
                                         QueuePolicy policy)
    : queue_(&pool_), capacity_(capacity), policy_(policy)
{
    palermo_assert(capacity > 0, "request queue needs capacity >= 1");
}

Admission
BoundedRequestQueue::offer(const ServiceRequest &request)
{
    if (full()) {
        if (policy_ == QueuePolicy::Block)
            return Admission::WouldBlock;
        ++rejected_;
        return Admission::Rejected;
    }
    ServiceRequest accepted = request;
    accepted.sequence = nextSequence_++;
    queue_.push_back(accepted);
    ++accepted_;
    highWatermark_ = std::max(highWatermark_, queue_.size());
    return Admission::Accepted;
}

ServiceRequest
BoundedRequestQueue::pop()
{
    palermo_assert(!queue_.empty(), "pop() on an empty request queue");
    const ServiceRequest request = queue_.front();
    queue_.pop_front();
    return request;
}

} // namespace palermo
