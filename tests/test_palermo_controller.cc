/** @file Unit tests for the Palermo PE-mesh timing controller. */

#include <gtest/gtest.h>

#include <string>

#include "controller/palermo_controller.hh"
#include "mem/dram_system.hh"

namespace palermo {
namespace {

ProtocolConfig
tinyConfig()
{
    ProtocolConfig config;
    config.numBlocks = 1 << 10;
    config.ringZ = 4;
    config.ringS = 5;
    config.ringA = 3;
    config.treetopBytes = {2048, 1024, 1024};
    return config;
}

DramConfig
tinyDram()
{
    DramConfig config;
    config.org.rows = 1u << 10;
    return config;
}

PalermoControllerConfig
meshConfig(unsigned columns)
{
    PalermoControllerConfig config;
    config.columns = columns;
    return config;
}

Tick
runToIdle(PalermoController &controller, DramSystem &dram,
          Tick limit = 4'000'000)
{
    while (!controller.idle() && dram.now() < limit) {
        for (const Completion &c : dram.drainCompletions())
            controller.onCompletion(c.tag);
        controller.tick(dram);
        dram.tick();
    }
    return dram.now();
}

/** Feed and drain `n` requests through a fresh controller. */
Tick
pump(PalermoController &controller, DramSystem &dram, unsigned n)
{
    unsigned pushed = 0;
    while (controller.stats().served + controller.stats().dummies < n
           && dram.now() < 8'000'000) {
        while (pushed < n && controller.canAccept()) {
            controller.push(pushed * 137 % (1 << 10), false, 0, false);
            ++pushed;
        }
        for (const Completion &c : dram.drainCompletions())
            controller.onCompletion(c.tag);
        controller.tick(dram);
        dram.tick();
    }
    return runToIdle(controller, dram);
}

/** End tick and summed sample latency of a 200-request pump. */
struct PumpResult
{
    Tick end;
    double latencySum;
};

PumpResult
pump200(unsigned columns, bool sw_mode)
{
    DramSystem dram(tinyDram());
    PalermoControllerConfig mesh = meshConfig(columns);
    mesh.swMode = sw_mode;
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), mesh);
    PumpResult result{pump(controller, dram, 200), 0.0};
    for (const LatencySample &sample : controller.stats().samples)
        result.latencySum += sample.latency;
    return result;
}

TEST(PalermoController, CompletesSingleRequest)
{
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), meshConfig(4));
    controller.push(5, false, 0, false);
    runToIdle(controller, dram);
    EXPECT_TRUE(controller.idle());
    EXPECT_EQ(controller.stats().served, 1u);
}

TEST(PalermoController, OverlapsRequests)
{
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), meshConfig(4));
    pump(controller, dram, 24);
    EXPECT_EQ(controller.stats().served, 24u);
    EXPECT_GT(controller.maxActiveColumns(), 1u);
}

TEST(PalermoController, SingleColumnSerializes)
{
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), meshConfig(1));
    pump(controller, dram, 8);
    EXPECT_EQ(controller.stats().served, 8u);
    EXPECT_EQ(controller.maxActiveColumns(), 1u);
}

TEST(PalermoController, MoreColumnsFinishFaster)
{
    Tick narrow_time;
    Tick wide_time;
    {
        DramSystem dram(tinyDram());
        PalermoController controller(
            std::make_unique<PalermoOram>(tinyConfig()), meshConfig(1));
        narrow_time = pump(controller, dram, 48);
    }
    {
        DramSystem dram(tinyDram());
        PalermoController controller(
            std::make_unique<PalermoOram>(tinyConfig()), meshConfig(8));
        wide_time = pump(controller, dram, 48);
    }
    EXPECT_LT(wide_time, narrow_time);
}

TEST(PalermoController, RetiresInCommitOrder)
{
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), meshConfig(4));
    pump(controller, dram, 16);
    // All samples recorded exactly once per real request.
    EXPECT_EQ(controller.stats().samples.size(), 16u);
}

TEST(PalermoController, RingAdmissionOnlyNextColumn)
{
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), meshConfig(2));
    ASSERT_TRUE(controller.canAccept());
    controller.push(1, false, 0, false);
    ASSERT_TRUE(controller.canAccept());
    controller.push(2, false, 0, false);
    // Both columns busy: ring is full until the head retires.
    EXPECT_FALSE(controller.canAccept());
    runToIdle(controller, dram);
    EXPECT_TRUE(controller.canAccept());
}

TEST(PalermoController, SameAddressBackToBack)
{
    // Pending-PA handling end to end: concurrent requests to one block.
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), meshConfig(4));
    for (int i = 0; i < 4; ++i)
        controller.push(7, false, 0, false);
    runToIdle(controller, dram);
    EXPECT_EQ(controller.stats().served, 4u);
    EXPECT_GE(controller.protocol().palermoStats().pendingServes, 1u);
}

TEST(PalermoController, WriteReadBack)
{
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), meshConfig(4));
    controller.push(9, true, 0x1234, false);
    runToIdle(controller, dram);
    controller.push(9, false, 0, false);
    runToIdle(controller, dram);
    // Functional payload verified through the protocol.
    const auto ids = controller.protocol().decompose(9);
    for (unsigned level = kHierLevels; level-- > 0;)
        controller.protocol().beginLevel(level, ids[level]);
    EXPECT_EQ(controller.protocol().finishData(9, false, 0), 0x1234u);
}

TEST(PalermoController, StashBoundedUnderLoad)
{
    ProtocolConfig config = tinyConfig();
    config.ringZ = 16;
    config.ringS = 27;
    config.ringA = 20;
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(config), meshConfig(8));
    pump(controller, dram, 200);
    for (unsigned level = 0; level < kHierLevels; ++level)
        EXPECT_FALSE(controller.stashOf(level).overflowed());
}

TEST(PalermoSwController, CompletesAndIsSlowerThanHw)
{
    Tick sw_time;
    Tick hw_time;
    {
        DramSystem dram(tinyDram());
        PalermoControllerConfig sw = meshConfig(8);
        sw.swMode = true;
        PalermoController controller(
            std::make_unique<PalermoOram>(tinyConfig()), sw);
        sw_time = pump(controller, dram, 48);
        EXPECT_EQ(controller.stats().served, 48u);
    }
    {
        DramSystem dram(tinyDram());
        PalermoController controller(
            std::make_unique<PalermoOram>(tinyConfig()), meshConfig(8));
        hw_time = pump(controller, dram, 48);
    }
    EXPECT_LT(hw_time, sw_time);
}

// Pinned timing at the ready mask's width limits (1, 33 and 64 PE
// columns), in hardware and software mode. A PE left out of the mask
// while it could move stalls its column and moves these values.
TEST(PalermoController, PumpTimingPinnedAtMaskWidths)
{
    struct Pin
    {
        unsigned columns;
        bool swMode;
        Tick end;
        double latencySum;
    };
    const Pin pins[] = {
        {1, false, 54359, 55923.0},   {33, false, 32393, 1000238.0},
        {64, false, 32226, 1769850.0}, {1, true, 58551, 61356.0},
        {33, true, 54252, 1641819.0},  {64, true, 54252, 2905292.0},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::to_string(pin.columns) + " columns"
                     + (pin.swMode ? ", software" : ", hardware"));
        const PumpResult got = pump200(pin.columns, pin.swMode);
        EXPECT_EQ(got.end, pin.end);
        EXPECT_EQ(got.latencySum, pin.latencySum);
    }
}

TEST(PalermoController, DummiesCountedSeparately)
{
    DramSystem dram(tinyDram());
    PalermoController controller(
        std::make_unique<PalermoOram>(tinyConfig()), meshConfig(4));
    controller.push(3, false, 0, /*dummy=*/true);
    runToIdle(controller, dram);
    EXPECT_EQ(controller.stats().served, 0u);
    EXPECT_EQ(controller.stats().dummies, 1u);
}

} // namespace
} // namespace palermo
