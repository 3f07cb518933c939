/** @file Unit tests for palermo_run flag parsing and name lookup. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/run_cli.hh"

namespace palermo {
namespace {

bool
parse(const std::vector<const char *> &args, RunOptions *options,
      std::string *error)
{
    return parseRunArgs(static_cast<int>(args.size()), args.data(),
                        options, error);
}

TEST(ProtocolFromName, AcceptsShortAndDisplayNames)
{
    ProtocolKind kind = ProtocolKind::PathOram;
    EXPECT_TRUE(protocolFromName("palermo", &kind));
    EXPECT_EQ(kind, ProtocolKind::Palermo);
    EXPECT_TRUE(protocolFromName("RingORAM", &kind));
    EXPECT_EQ(kind, ProtocolKind::RingOram);
    EXPECT_TRUE(protocolFromName("palermo-pf", &kind));
    EXPECT_EQ(kind, ProtocolKind::PalermoPrefetch);
    EXPECT_TRUE(protocolFromName("ir-oram", &kind));
    EXPECT_EQ(kind, ProtocolKind::IrOram);
    EXPECT_FALSE(protocolFromName("quantum-oram", &kind));
}

TEST(ProtocolFromName, RoundTripsEveryKind)
{
    for (ProtocolKind kind : allProtocolKinds()) {
        ProtocolKind parsed = ProtocolKind::PathOram;
        EXPECT_TRUE(protocolFromName(protocolShortName(kind), &parsed))
            << protocolShortName(kind);
        EXPECT_EQ(parsed, kind);
    }
}

TEST(WorkloadFromName, GraphAliasMapsToPageRank)
{
    Workload workload = Workload::Mcf;
    EXPECT_TRUE(tryWorkloadFromName("graph", &workload));
    EXPECT_EQ(workload, Workload::PageRank);
    EXPECT_TRUE(tryWorkloadFromName("rand", &workload));
    EXPECT_EQ(workload, Workload::Random);
    EXPECT_FALSE(tryWorkloadFromName("doom", &workload));
}

TEST(ParseRunArgs, DefaultsWhenEmpty)
{
    RunOptions options;
    std::string error;
    ASSERT_TRUE(parse({}, &options, &error)) << error;
    EXPECT_EQ(options.protocol, ProtocolKind::Palermo);
    EXPECT_EQ(options.workload, Workload::Random);
    EXPECT_EQ(options.jobs, 1u);
    EXPECT_TRUE(options.sweep.empty());
    EXPECT_FALSE(options.help);
}

TEST(ParseRunArgs, AcceptanceCriteriaInvocation)
{
    RunOptions options;
    std::string error;
    ASSERT_TRUE(parse({"--protocol", "palermo", "--workload", "graph",
                       "--sweep", "prefetch=0,4,8", "--jobs", "4",
                       "--json", "out.json"},
                      &options, &error))
        << error;
    EXPECT_EQ(options.protocol, ProtocolKind::Palermo);
    EXPECT_EQ(options.workload, Workload::PageRank);
    EXPECT_EQ(options.sweep, "prefetch=0,4,8");
    EXPECT_EQ(options.jobs, 4u);
    EXPECT_EQ(options.jsonPath, "out.json");

    const auto points = options.expandPoints(&error);
    ASSERT_EQ(points.size(), 3u) << error;
    EXPECT_EQ(points[0].id, "palermo/pr/prefetch=0");
    EXPECT_EQ(points[2].id, "palermo/pr/prefetch=8");
}

TEST(ParseRunArgs, EqualsFormAndRepeatedSweep)
{
    RunOptions options;
    std::string error;
    ASSERT_TRUE(parse({"--protocol=ring", "--workload=llm",
                       "--sweep=pe=1,8", "--sweep=channels=2,4",
                       "--jobs=2"},
                      &options, &error))
        << error;
    EXPECT_EQ(options.protocol, ProtocolKind::RingOram);
    EXPECT_EQ(options.sweep, "pe=1,8;channels=2,4");
    const auto points = options.expandPoints(&error);
    EXPECT_EQ(points.size(), 4u);
}

TEST(ParseRunArgs, NumericOverrides)
{
    RunOptions options;
    std::string error;
    ASSERT_TRUE(parse({"--blocks", "4096", "--reqs", "100", "--seed",
                       "42", "--constant-rate"},
                      &options, &error))
        << error;
    const SystemConfig config = options.baseConfig();
    EXPECT_EQ(config.protocol.numBlocks, 4096u);
    EXPECT_EQ(config.totalRequests, 100u);
    EXPECT_EQ(config.seed, 42u);
    EXPECT_EQ(config.protocol.seed, 42u);
    EXPECT_TRUE(config.constantRate);
}

TEST(ParseRunArgs, RejectsBadInput)
{
    RunOptions options;
    std::string error;
    EXPECT_FALSE(parse({"--protocol"}, &options, &error));
    EXPECT_FALSE(parse({"--protocol", "bogus"}, &options, &error));
    EXPECT_FALSE(parse({"--workload", "bogus"}, &options, &error));
    EXPECT_FALSE(parse({"--blocks", "zero"}, &options, &error));
    EXPECT_FALSE(parse({"--blocks", "0"}, &options, &error));
    EXPECT_FALSE(parse({"--jobs", "0"}, &options, &error));
    EXPECT_FALSE(parse({"--sim-threads", "2"}, &options, &error));
    EXPECT_NE(error.find("unknown flag"), std::string::npos) << error;
    EXPECT_FALSE(parse({"--frobnicate"}, &options, &error));
    EXPECT_FALSE(error.empty());
}

TEST(ParseRunArgs, BadSweepSurfacesAtExpansion)
{
    RunOptions options;
    std::string error;
    ASSERT_TRUE(parse({"--sweep", "bogus=1"}, &options, &error));
    const auto points = options.expandPoints(&error);
    EXPECT_TRUE(points.empty());
    EXPECT_FALSE(error.empty());
}

TEST(ParseRunArgs, HelpFlag)
{
    RunOptions options;
    std::string error;
    ASSERT_TRUE(parse({"--help"}, &options, &error));
    EXPECT_TRUE(options.help);
    // Usage names every flag it parses.
    const std::string usage = runUsage();
    for (const char *flag :
         {"--protocol", "--workload", "--blocks", "--reqs", "--seed",
          "--sweep", "--jobs", "--json", "--list", "--list-protocols",
          "--list-workloads", "--paper"})
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

TEST(ParseRunArgs, ListingFlags)
{
    RunOptions options;
    std::string error;
    ASSERT_TRUE(parse({"--list-protocols"}, &options, &error));
    EXPECT_TRUE(options.listProtocols);
    EXPECT_FALSE(options.listWorkloads);
    ASSERT_TRUE(parse({"--list-workloads"}, &options, &error));
    EXPECT_TRUE(options.listWorkloads);
}

TEST(Listings, ProtocolListingCoversRegistryInBarOrder)
{
    const std::string listing = protocolListing();
    // Every registered token appears, on its own line, in bar order.
    std::size_t last = 0;
    for (ProtocolKind kind : allProtocolKinds()) {
        const std::string token = protocolShortName(kind);
        const std::size_t pos = listing.find(token);
        ASSERT_NE(pos, std::string::npos) << token;
        EXPECT_GE(pos, last) << token << " out of bar order";
        last = pos;
    }
    // Capability flags surface for the prefetch-capable designs.
    EXPECT_NE(listing.find("prefetch"), std::string::npos);
    EXPECT_NE(listing.find("aliases:"), std::string::npos);
}

TEST(Listings, WorkloadListingCoversAllWorkloads)
{
    const std::string listing = workloadListing();
    for (Workload workload : allWorkloads())
        EXPECT_NE(listing.find(workloadName(workload)),
                  std::string::npos)
            << workloadName(workload);
}

TEST(Listings, UsageNamesEveryRegisteredProtocol)
{
    for (const std::string &usage : {runUsage(), replayUsage()})
        for (ProtocolKind kind : allProtocolKinds())
            EXPECT_NE(usage.find(protocolShortName(kind)),
                      std::string::npos)
                << protocolShortName(kind);
}

bool
parseReplay(const std::vector<const char *> &args,
            ReplayOptions *options, std::string *error)
{
    return parseReplayArgs(static_cast<int>(args.size()), args.data(),
                           options, error);
}

TEST(ParseReplayArgs, DefaultsAndFullInvocation)
{
    ReplayOptions options;
    std::string error;
    ASSERT_TRUE(parseReplay({}, &options, &error)) << error;
    EXPECT_EQ(options.protocol, ProtocolKind::Palermo);
    EXPECT_EQ(options.depth, 8u);
    EXPECT_EQ(options.progress, 0u);
    EXPECT_TRUE(options.tracePath.empty());

    ASSERT_TRUE(parseReplay({"--trace", "t.trace", "--protocol=ring",
                             "--blocks", "4096", "--seed=7",
                             "--depth", "4", "--progress=50", "--json",
                             "-"},
                            &options, &error))
        << error;
    EXPECT_EQ(options.tracePath, "t.trace");
    EXPECT_EQ(options.protocol, ProtocolKind::RingOram);
    EXPECT_EQ(options.depth, 4u);
    EXPECT_EQ(options.progress, 50u);
    EXPECT_EQ(options.jsonPath, "-");

    const SystemConfig config = options.baseConfig();
    EXPECT_EQ(config.protocol.numBlocks, 4096u);
    EXPECT_EQ(config.seed, 7u);
    EXPECT_EQ(config.protocol.seed, 7u);
}

TEST(ParseReplayArgs, RejectsBadInput)
{
    ReplayOptions options;
    std::string error;
    EXPECT_FALSE(parseReplay({"--trace"}, &options, &error));
    EXPECT_FALSE(parseReplay({"--protocol", "bogus"}, &options, &error));
    EXPECT_FALSE(parseReplay({"--depth", "0"}, &options, &error));
    EXPECT_FALSE(parseReplay({"--progress", "x"}, &options, &error));
    EXPECT_FALSE(parseReplay({"--jobs", "2"}, &options, &error));
    EXPECT_FALSE(parseReplay({"--sim-threads", "2"}, &options, &error));
    EXPECT_NE(error.find("unknown flag"), std::string::npos) << error;
}

} // namespace
} // namespace palermo
