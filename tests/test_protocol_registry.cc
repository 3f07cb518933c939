/**
 * @file Unit tests for the protocol table: name resolution across
 * tokens/display names/aliases, Fig. 10 bar order, the prefetch rule,
 * and config normalization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "controller/controller.hh"
#include "sim/experiment.hh"
#include "sim/protocol_registry.hh"
#include "sim/sweep.hh"

namespace palermo {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig config;
    config.protocol.numBlocks = 1 << 12;
    config.protocol.treetopBytes = {8192, 4096, 2048};
    config.totalRequests = 60;
    return config;
}

TEST(ProtocolRegistry, AllEightDesignPointsRegistered)
{
    EXPECT_EQ(protocolTable().size(), 8u);
    for (ProtocolKind kind : allProtocolKinds()) {
        const ProtocolRow &row = protocolRow(kind);
        EXPECT_EQ(row.kind, kind);
        EXPECT_NE(row.displayName, nullptr);
        EXPECT_NE(row.shortToken, nullptr);
        EXPECT_NE(row.build, nullptr);
    }
}

TEST(ProtocolRegistry, BarOrderMatchesFig10)
{
    // The paper's Fig. 10 x-axis, left to right.
    const std::vector<ProtocolKind> expected = {
        ProtocolKind::PathOram,  ProtocolKind::RingOram,
        ProtocolKind::PageOram,  ProtocolKind::PrOram,
        ProtocolKind::IrOram,    ProtocolKind::PalermoSw,
        ProtocolKind::Palermo,   ProtocolKind::PalermoPrefetch,
    };
    EXPECT_EQ(allProtocolKinds(), expected);

    std::size_t position = 0;
    for (const ProtocolRow &row : protocolTable())
        EXPECT_EQ(row.kind, expected[position++]) << row.displayName;
}

/** Every accepted spelling of a row. */
std::vector<std::string>
spellingsOf(const ProtocolRow &row)
{
    std::vector<std::string> spellings{row.displayName, row.shortToken};
    for (const char *alias : row.aliases)
        if (alias != nullptr)
            spellings.push_back(alias);
    return spellings;
}

TEST(ProtocolRegistry, ResolvesDisplayNameTokenAndAliases)
{
    for (const ProtocolRow &row : protocolTable()) {
        for (const std::string &name : spellingsOf(row)) {
            ProtocolKind kind = ProtocolKind::PathOram;
            EXPECT_TRUE(protocolFromName(name, &kind)) << name;
            EXPECT_EQ(kind, row.kind) << name;

            // Case-insensitive: uppercase every spelling too.
            std::string upper = name;
            std::transform(upper.begin(), upper.end(), upper.begin(),
                           [](unsigned char c) {
                               return static_cast<char>(
                                   std::toupper(c));
                           });
            EXPECT_TRUE(protocolFromName(upper, &kind)) << upper;
            EXPECT_EQ(kind, row.kind) << upper;
        }
    }
}

TEST(ProtocolRegistry, LegacyAliasesStillResolve)
{
    // Spellings the original factory-switch parser accepted must keep
    // working.
    const struct
    {
        const char *name;
        ProtocolKind kind;
    } cases[] = {
        {"pathoram", ProtocolKind::PathOram},
        {"RingOram", ProtocolKind::RingOram},
        {"pageoram", ProtocolKind::PageOram},
        {"PrORAM", ProtocolKind::PrOram},
        {"iroram", ProtocolKind::IrOram},
        {"IR-ORAM", ProtocolKind::IrOram},
        {"palermosw", ProtocolKind::PalermoSw},
        {"sw", ProtocolKind::PalermoSw},
        {"palermo-prefetch", ProtocolKind::PalermoPrefetch},
        {"Palermo+Prefetch", ProtocolKind::PalermoPrefetch},
        {"palermo+pf", ProtocolKind::PalermoPrefetch},
    };
    for (const auto &expected : cases) {
        ProtocolKind kind = ProtocolKind::Palermo;
        EXPECT_TRUE(protocolFromName(expected.name, &kind))
            << expected.name;
        EXPECT_EQ(kind, expected.kind) << expected.name;
    }
    ProtocolKind kind;
    EXPECT_FALSE(protocolFromName("quantum-oram", &kind));
}

TEST(ProtocolRegistry, NamesAndTokensAreUnique)
{
    // Case-insensitively, no spelling is shared by two protocols (a
    // row's display name may equal its own alias, as "PathORAM" and
    // "pathoram" do).
    std::set<std::string> seen;
    for (const ProtocolRow &row : protocolTable()) {
        std::set<std::string> own;
        for (std::string name : spellingsOf(row)) {
            std::transform(name.begin(), name.end(), name.begin(),
                           [](unsigned char c) {
                               return static_cast<char>(
                                   std::tolower(c));
                           });
            own.insert(name);
        }
        for (const std::string &name : own)
            EXPECT_TRUE(seen.insert(name).second) << name;
    }
}

TEST(ProtocolRegistry, CapabilityFlagsMatchTheDesigns)
{
    for (const ProtocolRow &row : protocolTable()) {
        const bool prefetching = row.kind == ProtocolKind::PrOram
            || row.kind == ProtocolKind::PalermoPrefetch;
        EXPECT_EQ(row.defaultPrefetchLen != 0, prefetching)
            << row.displayName;
    }
    EXPECT_EQ(protocolRow(ProtocolKind::PrOram).defaultPrefetchLen, 1u);
}

TEST(ProtocolRegistry, BuildsAControllerForEveryKind)
{
    const SystemConfig config = tinyConfig();
    for (ProtocolKind kind : allProtocolKinds()) {
        const auto controller = buildProtocolController(kind, config);
        ASSERT_NE(controller, nullptr) << protocolKindName(kind);
        EXPECT_TRUE(controller->canAccept()) << protocolKindName(kind);
        EXPECT_TRUE(controller->idle()) << protocolKindName(kind);
    }
}

TEST(ProtocolRegistry, EveryProtocolHonorsDecryptLatency)
{
    // SystemConfig::decryptLatency is reported in every point's config
    // block, so every registered controller must run at it: a slower
    // decrypt pipeline has to show up in the mean response latency.
    // (Palermo-SW used to build from its own defaults and ignore it.)
    SystemConfig fast = tinyConfig();
    fast.totalRequests = 200;
    SystemConfig slow = fast;
    slow.decryptLatency = fast.decryptLatency + 200;
    for (ProtocolKind kind : allProtocolKinds()) {
        const RunMetrics base = runExperiment(kind, Workload::Random, fast);
        const RunMetrics slowed = runExperiment(kind, Workload::Random, slow);
        EXPECT_GT(slowed.latency.mean(), base.latency.mean())
            << protocolKindName(kind);
    }
}

TEST(ProtocolRegistry, NonPrefetchDescriptorsClampPrefetchLen)
{
    // The capability clamp replaced the per-case prefetchLen = 1
    // assignments of the old factory switch: a non-prefetch design
    // given a prefetch config must not widen its blocks.
    SystemConfig config = tinyConfig();
    config.protocol.prefetchLen = 8;
    const RunMetrics plain =
        runExperiment(ProtocolKind::Palermo, Workload::Stream, config);
    SystemConfig clamped = tinyConfig();
    clamped.protocol.prefetchLen = 1;
    const RunMetrics reference =
        runExperiment(ProtocolKind::Palermo, Workload::Stream, clamped);
    EXPECT_EQ(plain.measuredCycles, reference.measuredCycles);
    EXPECT_EQ(plain.dramReads, reference.dramReads);
    EXPECT_EQ(plain.llcHits, 0u);
}

TEST(ProtocolRegistry, PalermoPrefetchDerivesAPrefetchLength)
{
    // palermo-pf with the no-prefetch default used to silently
    // degenerate to plain Palermo. Its prefetch rule now derives a
    // real prefetch length instead.
    SystemConfig defaulted = tinyConfig();
    EXPECT_GT(normalizedProtocolConfig(ProtocolKind::PalermoPrefetch,
                                       defaulted)
                  .protocol.prefetchLen,
              1u);
    defaulted.protocol.prefetchLen = 0;
    EXPECT_GT(normalizedProtocolConfig(ProtocolKind::PalermoPrefetch,
                                       defaulted)
                  .protocol.prefetchLen,
              1u);

    // An explicit choice is honored untouched.
    SystemConfig chosen = tinyConfig();
    chosen.protocol.prefetchLen = 8;
    EXPECT_EQ(normalizedProtocolConfig(ProtocolKind::PalermoPrefetch,
                                       chosen)
                  .protocol.prefetchLen,
              8u);

    // End to end: a defaulted palermo-pf run now actually prefetches
    // (LLC hits can only come from widened fills).
    SystemConfig config = tinyConfig();
    config.totalRequests = 200;
    const RunMetrics metrics = runExperiment(
        ProtocolKind::PalermoPrefetch, Workload::Stream, config);
    EXPECT_GT(metrics.llcHits, 0u);
}

TEST(ProtocolRegistry, NormalizedConfigIsWhatRecordsReport)
{
    // Sweep expansion and the bench harness record the normalized
    // config, so JSON never claims a prefetch length the run ignored.
    SystemConfig config = tinyConfig();
    config.protocol.prefetchLen = 8;
    const SystemConfig ring =
        normalizedProtocolConfig(ProtocolKind::RingOram, config);
    EXPECT_EQ(ring.protocol.prefetchLen, 1u);
    const SystemConfig pf =
        normalizedProtocolConfig(ProtocolKind::PalermoPrefetch, config);
    EXPECT_EQ(pf.protocol.prefetchLen, 8u);

    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse("protocol=ring,palermo-pf", &spec,
                                 &error))
        << error;
    const std::vector<DesignPoint> points =
        spec.expand(ProtocolKind::Palermo, Workload::Mcf, config);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].config.protocol.prefetchLen, 1u);
    EXPECT_EQ(points[1].config.protocol.prefetchLen, 8u);
}

} // namespace
} // namespace palermo
