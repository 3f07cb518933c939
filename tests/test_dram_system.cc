/** @file Unit tests for the multi-channel DRAM system facade. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/dram_system.hh"

namespace palermo {
namespace {

DramConfig
smallConfig()
{
    DramConfig config;
    config.org.channels = 4;
    config.org.rows = 1u << 10;
    config.queueDepth = 32;
    return config;
}

TEST(DramSystem, PeakBandwidthMatchesTableIII)
{
    // Table III: four DDR4-3200 channels, 25.6 GB/s each. The bench
    // banners (SystemConfig::describe) print the peak from these
    // timing and organization fields.
    const DramConfig config = smallConfig();
    const double bytes_per_tick =
        config.timing.bytesPerCycle() * config.org.channels;
    EXPECT_DOUBLE_EQ(bytes_per_tick, 64.0);
    EXPECT_DOUBLE_EQ(bytes_per_tick * config.timing.clockGHz, 102.4);
}

TEST(DramSystem, SingleReadCompletes)
{
    DramSystem dram(smallConfig());
    ASSERT_TRUE(dram.enqueue(0x1000, false, 7));
    std::vector<Completion> done;
    for (int i = 0; i < 1000 && done.empty(); ++i) {
        dram.tick();
        for (const auto &c : dram.drainCompletions())
            done.push_back(c);
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 7u);
    EXPECT_EQ(dram.snapshot().reads, 1u);
}

TEST(DramSystem, CompletionsDrainInFinishOrder)
{
    DramSystem dram(smallConfig());
    Rng rng(1);
    for (std::uint64_t i = 0; i < 16; ++i)
        ASSERT_TRUE(dram.enqueue(rng.next() % (1 << 24) * 64, false, i));
    std::vector<Completion> done;
    for (int i = 0; i < 5000 && done.size() < 16; ++i) {
        dram.tick();
        for (const auto &c : dram.drainCompletions())
            done.push_back(c);
    }
    ASSERT_EQ(done.size(), 16u);
    for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT_LE(done[i - 1].finishTick, done[i].finishTick);
}

TEST(DramSystem, StreamingSaturatesBandwidth)
{
    // Sequential lines interleave channels and walk open rows: the bus
    // should reach high utilization.
    DramSystem dram(smallConfig());
    Addr next_addr = 0;
    std::uint64_t completed = 0;
    const std::uint64_t target = 3000;
    std::uint64_t issued = 0;
    while (completed < target && dram.now() < 200000) {
        while (issued < target
               && dram.enqueue(next_addr, false, issued)) {
            next_addr += kBlockBytes;
            ++issued;
        }
        dram.tick();
        completed += dram.drainCompletions().size();
    }
    ASSERT_EQ(completed, target);
    EXPECT_GT(dram.snapshot().busUtilization(), 0.7);
    EXPECT_GT(dram.snapshot().rowHitRate(), 0.8);
}

TEST(DramSystem, RandomTrafficLowerUtilization)
{
    DramSystem dram(smallConfig());
    Rng rng(2);
    std::uint64_t completed = 0;
    const std::uint64_t target = 1500;
    std::uint64_t issued = 0;
    const std::uint64_t lines =
        smallConfig().org.capacityBytes() / kBlockBytes;
    while (completed < target && dram.now() < 400000) {
        while (issued < target
               && dram.enqueue(rng.range(lines) * kBlockBytes, false,
                               issued)) {
            ++issued;
        }
        dram.tick();
        completed += dram.drainCompletions().size();
    }
    ASSERT_EQ(completed, target);
    const DramSnapshot snap = dram.snapshot();
    EXPECT_LT(snap.rowHitRate(), 0.6);
    EXPECT_GT(snap.avgQueueOccupancy, 1.0);
}

TEST(DramSystem, ResetStatsKeepsState)
{
    DramSystem dram(smallConfig());
    ASSERT_TRUE(dram.enqueue(0, false, 1));
    for (int i = 0; i < 500; ++i)
        dram.tick();
    dram.drainCompletions();
    EXPECT_GT(dram.snapshot().reads, 0u);
    dram.resetStats();
    EXPECT_EQ(dram.snapshot().reads, 0u);
    EXPECT_GT(dram.now(), 0u); // Time itself is preserved.
}

TEST(DramSystem, OccupancyReflectsQueues)
{
    DramSystem dram(smallConfig());
    EXPECT_EQ(dram.occupancy(), 0u);
    ASSERT_TRUE(dram.enqueue(0, false, 1));
    ASSERT_TRUE(dram.enqueue(64, false, 2));
    EXPECT_EQ(dram.occupancy(), 2u);
}

TEST(DramSystem, WriteThenReadForwards)
{
    DramSystem dram(smallConfig());
    ASSERT_TRUE(dram.enqueue(0x2000, true, 0));
    ASSERT_TRUE(dram.enqueue(0x2000, false, 5));
    std::vector<Completion> done;
    for (int i = 0; i < 200 && done.empty(); ++i) {
        dram.tick();
        for (const auto &c : dram.drainCompletions())
            done.push_back(c);
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].forwarded);
    EXPECT_EQ(dram.snapshot().forwardedReads, 1u);
}

TEST(DramSystem, SnapshotAggregatesAcrossChannels)
{
    DramSystem dram(smallConfig());
    // One read per channel (consecutive lines interleave).
    for (unsigned i = 0; i < 4; ++i)
        ASSERT_TRUE(dram.enqueue(i * kBlockBytes, false, i));
    std::uint64_t completed = 0;
    for (int i = 0; i < 1000 && completed < 4; ++i) {
        dram.tick();
        completed += dram.drainCompletions().size();
    }
    ASSERT_EQ(completed, 4u);
    EXPECT_EQ(dram.snapshot().reads, 4u);
    EXPECT_EQ(dram.snapshot().rowMisses, 4u);
}

} // namespace
} // namespace palermo
