/**
 * @file
 * Serial-vs-parallel byte-identity gate for channel-sharded stepping.
 *
 * The contract of --sim-threads is that it is an execution knob, not a
 * design point: for any thread count, every stat, stash sample, and
 * metrics-JSON byte must equal the serial run. These tests render the
 * same fixed grids the determinism golden uses (scaled down so the
 * epoch barriers stay cheap on single-core CI) at thread counts
 * {1, 2, 4, hardware_concurrency} and byte-compare the documents; a
 * constant-rate grid exercises the long idle spans, RingORAM's
 * SerialController the long busy spans (reads queued, completions
 * landing in channel outboxes inside a sharded window), and a
 * step-pattern test pins finish()'s span jumps against a manual
 * step(1) loop.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/metrics_json.hh"
#include "sim/protocol_registry.hh"

namespace palermo {
namespace {

/** Thread counts under test: serial, small, wide, and whatever the
 *  host reports (deduplicated by the caller's comparisons being
 *  against the serial document anyway). */
std::vector<unsigned>
threadGrid()
{
    return {1, 2, 4, std::max(1u, std::thread::hardware_concurrency())};
}

/**
 * Render the tiny grid at one thread count. Identical inputs except
 * simThreads must produce identical bytes.
 */
std::string
renderGrid(unsigned sim_threads, bool constant_rate)
{
    struct GridPoint
    {
        ProtocolKind kind;
        unsigned log2Blocks;
    };
    const std::vector<GridPoint> grid = {
        {ProtocolKind::Palermo, 10},
        {ProtocolKind::PathOram, 10},
        {ProtocolKind::RingOram, 10},
    };

    std::vector<RunRecord> records;
    for (const GridPoint &point : grid) {
        SystemConfig config;
        config.protocol.numBlocks = 1ull << point.log2Blocks;
        config.totalRequests = 200;
        config.seed = 1;
        config.constantRate = constant_rate;
        config.simThreads = sim_threads;
        config = normalizedProtocolConfig(point.kind, config);

        RunRecord record;
        record.point.index = records.size();
        record.point.kind = point.kind;
        record.point.workload = Workload::Random;
        record.point.config = config;
        record.point.id = std::string(protocolShortName(point.kind))
            + "/b" + std::to_string(point.log2Blocks);
        record.metrics =
            runExperiment(point.kind, Workload::Random, config);
        records.push_back(std::move(record));
    }
    return MetricsJson::document("test_parallel_identity", records);
}

TEST(ParallelIdentity, SaturatedGridBytesMatchSerial)
{
    const std::string serial = renderGrid(1, false);
    ASSERT_FALSE(serial.empty());
    for (const unsigned threads : threadGrid()) {
        if (threads == 1)
            continue;
        EXPECT_EQ(serial, renderGrid(threads, false))
            << "saturated grid diverged at --sim-threads " << threads;
    }
}

TEST(ParallelIdentity, ConstantRateGridBytesMatchSerial)
{
    // Constant-rate issue leaves long idle gaps between requests, so
    // this grid spends most of its cycles in deferred spans settled by
    // Controller::tickSpan + DramSystem::tickWindow — the
    // epoch-batching half of the parallel stepping contract.
    const std::string serial = renderGrid(1, true);
    ASSERT_FALSE(serial.empty());
    for (const unsigned threads : threadGrid()) {
        if (threads == 1)
            continue;
        EXPECT_EQ(serial, renderGrid(threads, true))
            << "constant-rate grid diverged at --sim-threads "
            << threads;
    }
}

/** Run one session to completion with per-cycle step(1) calls. */
RunMetrics
runStepwise(ProtocolKind kind, const SystemConfig &config)
{
    auto session = makeSession(kind, Workload::Random, config);
    while (!session->done())
        session->step(1);
    session->drain();
    return session->snapshot();
}

TEST(ParallelIdentity, FinishChunkingMatchesStepwiseDrive)
{
    // finish() jumps to each event horizon and checks done() once per
    // real cycle; an external driver steps one cycle at a time. Both must
    // land on the same final state — here compared through the full
    // rendered document, same-config single point each.
    SystemConfig config;
    config.protocol.numBlocks = 1ull << 10;
    config.totalRequests = 150;
    config.seed = 7;
    config.constantRate = true;
    config.simThreads = 4;
    config = normalizedProtocolConfig(ProtocolKind::Palermo, config);

    const auto render = [&](const RunMetrics &metrics) {
        RunRecord record;
        record.point.kind = ProtocolKind::Palermo;
        record.point.workload = Workload::Random;
        record.point.config = config;
        record.point.id = "palermo/step-pattern";
        record.metrics = metrics;
        return MetricsJson::document("test_parallel_identity", {record});
    };

    const RunMetrics chunked =
        runExperiment(ProtocolKind::Palermo, Workload::Random, config);
    const RunMetrics stepwise =
        runStepwise(ProtocolKind::Palermo, config);
    EXPECT_EQ(render(chunked), render(stepwise));
}

TEST(ParallelIdentity, ThreadsBeyondChannelsStillIdentical)
{
    // More threads than channels: shards clamp to the channel count
    // and the spare workers idle at the barrier.
    SystemConfig config;
    config.protocol.numBlocks = 1ull << 10;
    config.totalRequests = 120;
    config.seed = 3;
    config = normalizedProtocolConfig(ProtocolKind::Palermo, config);

    SystemConfig wide = config;
    wide.simThreads = 16;
    const RunMetrics a =
        runExperiment(ProtocolKind::Palermo, Workload::Random, config);
    const RunMetrics b =
        runExperiment(ProtocolKind::Palermo, Workload::Random, wide);
    EXPECT_EQ(a.measuredRequests, b.measuredRequests);
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.stashSamples, b.stashSamples);
    EXPECT_EQ(a.avgOutstanding, b.avgOutstanding);
}

} // namespace
} // namespace palermo
