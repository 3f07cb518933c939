/**
 * @file BoundedRequestQueue tests: backpressure policy semantics
 * (Reject counts and drops, Block leaves state untouched for a
 * retry), strict FIFO ordering across mixed tenants, and the
 * occupancy bookkeeping the service snapshot reports.
 */

#include <gtest/gtest.h>

#include <vector>

#include "service/request_queue.hh"

namespace palermo {
namespace {

ServiceRequest
makeRequest(std::uint32_t tenant, BlockId block, Tick arrival = 0)
{
    ServiceRequest request;
    request.tenant = tenant;
    request.block = block;
    request.arrival = arrival;
    return request;
}

TEST(RequestQueueTest, PolicyNamesRoundTrip)
{
    QueuePolicy policy = QueuePolicy::Block;
    EXPECT_TRUE(queuePolicyFromName("reject", &policy));
    EXPECT_EQ(policy, QueuePolicy::Reject);
    EXPECT_TRUE(queuePolicyFromName("block", &policy));
    EXPECT_EQ(policy, QueuePolicy::Block);
    EXPECT_FALSE(queuePolicyFromName("drop", &policy));
    EXPECT_STREQ(queuePolicyName(QueuePolicy::Reject), "reject");
    EXPECT_STREQ(queuePolicyName(QueuePolicy::Block), "block");
}

TEST(RequestQueueTest, AcceptsUntilFullThenRejects)
{
    BoundedRequestQueue queue(3, QueuePolicy::Reject);
    EXPECT_TRUE(queue.empty());
    for (std::uint32_t i = 0; i < 3; ++i)
        EXPECT_EQ(queue.offer(makeRequest(0, i)), Admission::Accepted);
    EXPECT_TRUE(queue.full());

    // Full + Reject: the arrival is dropped and counted, the queue
    // contents are untouched.
    EXPECT_EQ(queue.offer(makeRequest(0, 99)), Admission::Rejected);
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.accepted(), 3u);
    EXPECT_EQ(queue.rejected(), 1u);

    // Popping one reopens admission.
    EXPECT_EQ(queue.pop().block, 0u);
    EXPECT_EQ(queue.offer(makeRequest(0, 100)), Admission::Accepted);
    EXPECT_EQ(queue.accepted(), 4u);
}

TEST(RequestQueueTest, BlockPolicyLeavesStateUntouched)
{
    BoundedRequestQueue queue(2, QueuePolicy::Block);
    EXPECT_EQ(queue.offer(makeRequest(0, 1)), Admission::Accepted);
    EXPECT_EQ(queue.offer(makeRequest(0, 2)), Admission::Accepted);

    // WouldBlock is not an admission outcome: nothing is counted, so
    // the caller can retry the identical request later.
    EXPECT_EQ(queue.offer(makeRequest(0, 3)), Admission::WouldBlock);
    EXPECT_EQ(queue.offer(makeRequest(0, 3)), Admission::WouldBlock);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.accepted(), 2u);
    EXPECT_EQ(queue.rejected(), 0u);

    queue.pop();
    EXPECT_EQ(queue.offer(makeRequest(0, 3)), Admission::Accepted);
    EXPECT_EQ(queue.accepted(), 3u);
}

TEST(RequestQueueTest, FifoAcrossMixedTenants)
{
    BoundedRequestQueue queue(8, QueuePolicy::Reject);
    // Interleave three tenants; admission order must be preserved
    // exactly (no per-tenant reordering or priority).
    const std::uint32_t tenants[] = {2, 0, 1, 1, 0, 2, 0, 1};
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(queue.offer(makeRequest(tenants[i], i)),
                  Admission::Accepted);
    for (std::size_t i = 0; i < 8; ++i) {
        const ServiceRequest request = queue.pop();
        EXPECT_EQ(request.tenant, tenants[i]);
        EXPECT_EQ(request.block, i);
        EXPECT_EQ(request.sequence, i);
    }
    EXPECT_TRUE(queue.empty());
}

TEST(RequestQueueTest, SequenceNumbersSurviveRejections)
{
    BoundedRequestQueue queue(1, QueuePolicy::Reject);
    EXPECT_EQ(queue.offer(makeRequest(0, 0)), Admission::Accepted);
    EXPECT_EQ(queue.offer(makeRequest(0, 1)), Admission::Rejected);
    queue.pop();
    EXPECT_EQ(queue.offer(makeRequest(0, 2)), Admission::Accepted);
    // Rejected arrivals consume no sequence number: the FIFO witness
    // stays dense over accepted requests only.
    EXPECT_EQ(queue.pop().sequence, 1u);
}

TEST(RequestQueueTest, HighWatermarkTracksDeepestOccupancy)
{
    BoundedRequestQueue queue(4, QueuePolicy::Reject);
    queue.offer(makeRequest(0, 0));
    queue.offer(makeRequest(0, 1));
    queue.offer(makeRequest(0, 2));
    EXPECT_EQ(queue.highWatermark(), 3u);
    queue.pop();
    queue.pop();
    EXPECT_EQ(queue.highWatermark(), 3u); // Never decreases.
    queue.offer(makeRequest(0, 3));
    EXPECT_EQ(queue.highWatermark(), 3u);
}

TEST(RequestQueueTest, ForEachVisitsFifoOrder)
{
    BoundedRequestQueue queue(4, QueuePolicy::Reject);
    for (std::uint32_t i = 0; i < 3; ++i)
        queue.offer(makeRequest(i, 10 + i));
    std::vector<BlockId> seen;
    queue.forEach([&](const ServiceRequest &request) {
        seen.push_back(request.block);
    });
    EXPECT_EQ(seen, (std::vector<BlockId>{10, 11, 12}));
}

} // namespace
} // namespace palermo
