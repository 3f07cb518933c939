/** @file Unit tests for SweepSpec parsing/expansion and SweepRunner. */

#include <gtest/gtest.h>

#include <string>

#include "sim/metrics_json.hh"
#include "sim/sweep.hh"

namespace palermo {
namespace {

/** Tiny geometry so every runner test completes in milliseconds. */
SystemConfig
tinyConfig()
{
    SystemConfig config;
    config.protocol.numBlocks = 1ull << 12;
    config.protocol.treetopBytes = {8 * 1024, 4 * 1024, 2 * 1024};
    config.totalRequests = 60;
    return config;
}

TEST(SweepSpec, ParseSingleAxis)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse("prefetch=0,4,8", &spec, &error))
        << error;
    ASSERT_EQ(spec.prefetchLens.size(), 3u);
    EXPECT_EQ(spec.prefetchLens[0], 0u);
    EXPECT_EQ(spec.prefetchLens[2], 8u);
    EXPECT_EQ(spec.pointCount(), 3u);
}

TEST(SweepSpec, ParseMultipleAxes)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse(
        "protocol=ring,palermo;workload=mcf,llm;zsa=4:5:3,8:12:8;"
        "pe=1,8;channels=2;seed=1,2",
        &spec, &error))
        << error;
    EXPECT_EQ(spec.protocols.size(), 2u);
    EXPECT_EQ(spec.workloads.size(), 2u);
    EXPECT_EQ(spec.zsaPoints.size(), 2u);
    EXPECT_EQ(spec.zsaPoints[1].s, 12u);
    EXPECT_EQ(spec.peColumns.size(), 2u);
    EXPECT_EQ(spec.channels.size(), 1u);
    EXPECT_EQ(spec.seeds.size(), 2u);
    EXPECT_EQ(spec.pointCount(), 2u * 2 * 2 * 2 * 1 * 2);
}

TEST(SweepSpec, ParseAliasesAndWhitespace)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(
        SweepSpec::parse("pf=2 wl=graph proto=palermo", &spec, &error))
        << error;
    EXPECT_EQ(spec.prefetchLens.size(), 1u);
    ASSERT_EQ(spec.workloads.size(), 1u);
    EXPECT_EQ(spec.workloads[0], Workload::PageRank);
    EXPECT_EQ(spec.protocols.size(), 1u);
}

TEST(SweepSpec, ParseRejectsMalformedInput)
{
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(SweepSpec::parse("prefetch", &spec, &error));
    EXPECT_FALSE(SweepSpec::parse("prefetch=", &spec, &error));
    EXPECT_FALSE(SweepSpec::parse("bogus=1", &spec, &error));
    EXPECT_FALSE(SweepSpec::parse("protocol=quantum", &spec, &error));
    EXPECT_FALSE(SweepSpec::parse("workload=doom", &spec, &error));
    EXPECT_FALSE(SweepSpec::parse("zsa=4:5", &spec, &error));
    EXPECT_FALSE(SweepSpec::parse("pe=0", &spec, &error));
    EXPECT_FALSE(SweepSpec::parse("pe=65", &spec, &error));
    EXPECT_EQ(error, "bad pe count '65' (1..64)");
    EXPECT_TRUE(SweepSpec::parse("pe=64", &spec, &error)) << error;
    EXPECT_FALSE(SweepSpec::parse("prefetch=x", &spec, &error));
    EXPECT_FALSE(error.empty());
}

TEST(SweepSpec, EmptySpecExpandsToBasePoint)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse("", &spec, &error));
    EXPECT_EQ(spec.pointCount(), 1u);
    const auto points = spec.expand(ProtocolKind::RingOram,
                                    Workload::Mcf, tinyConfig());
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].kind, ProtocolKind::RingOram);
    EXPECT_EQ(points[0].workload, Workload::Mcf);
    EXPECT_EQ(points[0].id, "ring/mcf");
}

TEST(SweepSpec, ExpandOrderAndIdsAreStable)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse("workload=mcf,llm;prefetch=0,4", &spec,
                                 &error));
    const auto points = spec.expand(ProtocolKind::Palermo,
                                    Workload::Random, tinyConfig());
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].id, "palermo/mcf/prefetch=0");
    EXPECT_EQ(points[1].id, "palermo/mcf/prefetch=4");
    EXPECT_EQ(points[2].id, "palermo/llm/prefetch=0");
    EXPECT_EQ(points[3].id, "palermo/llm/prefetch=4");
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);
}

TEST(SweepSpec, PrefetchUpgradesPalermoKind)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse("prefetch=0,4", &spec, &error));
    const auto points = spec.expand(ProtocolKind::Palermo,
                                    Workload::Random, tinyConfig());
    ASSERT_EQ(points.size(), 2u);
    // pf=0 means "no prefetch": plain Palermo with prefetchLen 1.
    EXPECT_EQ(points[0].kind, ProtocolKind::Palermo);
    EXPECT_EQ(points[0].config.protocol.prefetchLen, 1u);
    // pf=4 upgrades to the prefetching controller configuration.
    EXPECT_EQ(points[1].kind, ProtocolKind::PalermoPrefetch);
    EXPECT_EQ(points[1].config.protocol.prefetchLen, 4u);
}

TEST(SweepSpec, SeedAxisSetsPointSeeds)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse("seed=7,9", &spec, &error));
    const auto points = spec.expand(ProtocolKind::Palermo,
                                    Workload::Random, tinyConfig());
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].config.seed, 7u);
    EXPECT_EQ(points[0].config.protocol.seed, 7u);
    EXPECT_EQ(points[1].config.seed, 9u);
    EXPECT_NE(points[0].id, points[1].id);
}

TEST(SweepRunner, RecordsFollowPointOrder)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(
        SweepSpec::parse("protocol=ring,palermo", &spec, &error));
    const auto points = spec.expand(ProtocolKind::Palermo,
                                    Workload::Stream, tinyConfig());
    const auto records = SweepRunner(2).run(points);
    ASSERT_EQ(records.size(), points.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].point.id, points[i].id);
        EXPECT_GT(records[i].metrics.measuredRequests, 0u);
    }
}

TEST(SweepRunner, SerialAndParallelRunsAreByteIdentical)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse(
        "protocol=ring,palermo;prefetch=0,4", &spec, &error));
    const auto points = spec.expand(ProtocolKind::Palermo,
                                    Workload::PageRank, tinyConfig());
    ASSERT_EQ(points.size(), 4u);

    const auto serial = SweepRunner(1).run(points);
    const auto parallel = SweepRunner(4).run(points);
    const std::string serial_doc =
        MetricsJson::document("test", serial);
    const std::string parallel_doc =
        MetricsJson::document("test", parallel);
    EXPECT_EQ(serial_doc, parallel_doc);
}

TEST(SanityCheck, FlagsOverflowAndDegenerateRuns)
{
    RunRecord good;
    good.point.id = "good";
    good.metrics.measuredRequests = 10;
    good.metrics.requestsPerKilocycle = 1.0;

    RunRecord overflowed = good;
    overflowed.point.id = "overflowed";
    overflowed.metrics.stashOverflowed = true;

    RunRecord empty = good;
    empty.point.id = "empty";
    empty.metrics.measuredRequests = 0;
    empty.metrics.requestsPerKilocycle = 0.0;

    std::vector<std::string> problems;
    EXPECT_TRUE(sanityCheck({good}, &problems));
    EXPECT_TRUE(problems.empty());

    EXPECT_FALSE(sanityCheck({good, overflowed, empty}, &problems));
    EXPECT_EQ(problems.size(), 3u); // overflow + no-requests + 0 tput.

    // Experiments that force stash pressure opt out per point.
    overflowed.point.allowStashOverflow = true;
    problems.clear();
    EXPECT_TRUE(sanityCheck({good, overflowed}, &problems));
}

} // namespace
} // namespace palermo
