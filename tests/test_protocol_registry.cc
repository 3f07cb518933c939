/**
 * @file Unit tests for the self-registering protocol registry: name
 * resolution across tokens/display names/aliases, Fig. 10 bar order,
 * capability flags, and the config-normalization hooks that replaced
 * the factory switch.
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
    EXPECT_EQ(ProtocolRegistry::instance().size(), 8u);
    for (ProtocolKind kind : allProtocolKinds()) {
        const ProtocolDescriptor *descriptor =
            ProtocolRegistry::instance().find(kind);
        ASSERT_NE(descriptor, nullptr);
        EXPECT_NE(descriptor->displayName, nullptr);
        EXPECT_NE(descriptor->shortToken, nullptr);
        EXPECT_TRUE(static_cast<bool>(descriptor->build));
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

    unsigned position = 0;
    for (const ProtocolDescriptor *descriptor :
         ProtocolRegistry::instance().all())
        EXPECT_EQ(descriptor->barOrder, position++)
            << descriptor->displayName;
}

TEST(ProtocolRegistry, ResolvesDisplayNameTokenAndAliases)
{
    for (const ProtocolDescriptor *descriptor :
         ProtocolRegistry::instance().all()) {
        std::vector<std::string> spellings{descriptor->displayName,
                                           descriptor->shortToken};
        for (const std::string &alias : descriptor->aliases)
            spellings.push_back(alias);

        for (const std::string &name : spellings) {
            ProtocolKind kind = ProtocolKind::PathOram;
            EXPECT_TRUE(protocolFromName(name, &kind)) << name;
            EXPECT_EQ(kind, descriptor->kind) << name;

            // Case-insensitive: uppercase every spelling too.
            std::string upper = name;
            std::transform(upper.begin(), upper.end(), upper.begin(),
                           [](unsigned char c) {
                               return static_cast<char>(
                                   std::toupper(c));
                           });
            EXPECT_TRUE(protocolFromName(upper, &kind)) << upper;
            EXPECT_EQ(kind, descriptor->kind) << upper;
        }
    }
}

TEST(ProtocolRegistry, LegacyAliasesStillResolve)
{
    // Spellings the pre-registry parser accepted must keep working.
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
    EXPECT_EQ(ProtocolRegistry::instance().findByName("quantum-oram"),
              nullptr);
}

TEST(ProtocolRegistry, NamesAndTokensAreUnique)
{
    std::set<std::string> seen;
    for (const ProtocolDescriptor *descriptor :
         ProtocolRegistry::instance().all()) {
        EXPECT_TRUE(seen.insert(descriptor->displayName).second);
        EXPECT_TRUE(seen.insert(descriptor->shortToken).second);
        for (const std::string &alias : descriptor->aliases)
            EXPECT_TRUE(seen.insert(alias).second) << alias;
    }
}

TEST(ProtocolRegistry, CapabilityFlagsMatchTheDesigns)
{
    const ProtocolRegistry &registry = ProtocolRegistry::instance();
    for (const ProtocolDescriptor *descriptor : registry.all()) {
        const bool prefetching =
            descriptor->kind == ProtocolKind::PrOram
            || descriptor->kind == ProtocolKind::PalermoPrefetch;
        EXPECT_EQ(descriptor->supportsPrefetch, prefetching)
            << descriptor->displayName;
        EXPECT_TRUE(descriptor->constantRateCapable)
            << descriptor->displayName;
    }
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
    // Satellite fix: palermo-pf with the no-prefetch default used to
    // silently degenerate to plain Palermo. The descriptor's adjust
    // hook now derives a real prefetch length instead.
    const ProtocolDescriptor &descriptor =
        ProtocolRegistry::instance().at(ProtocolKind::PalermoPrefetch);
    ASSERT_TRUE(static_cast<bool>(descriptor.adjustConfig));

    SystemConfig defaulted = tinyConfig();
    descriptor.adjustConfig(defaulted);
    EXPECT_GT(defaulted.protocol.prefetchLen, 1u);

    // An explicit choice is honored untouched.
    SystemConfig chosen = tinyConfig();
    chosen.protocol.prefetchLen = 8;
    descriptor.adjustConfig(chosen);
    EXPECT_EQ(chosen.protocol.prefetchLen, 8u);

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

TEST(ProtocolRegistry, ConstantRateCapabilityGatesConstruction)
{
    // A protocol that cannot pad with dummies must refuse the §VI
    // constant-rate frontend instead of running it insecurely.
    SystemConfig config = tinyConfig();
    config.constantRate = true;
    EXPECT_DEATH(
        {
            ProtocolDescriptor d;
            d.kind = static_cast<ProtocolKind>(1001);
            d.displayName = "NoDummyORAM";
            d.shortToken = "nodummy";
            d.barOrder = 98;
            d.constantRateCapable = false;
            d.build = [](const SystemConfig &c) {
                return buildProtocolController(ProtocolKind::Palermo, c);
            };
            ProtocolRegistry::instance().add(std::move(d));
            buildProtocolController(static_cast<ProtocolKind>(1001), config);
        },
        "constant-rate");
}

TEST(ProtocolRegistry, RejectsDuplicateRegistration)
{
    ProtocolDescriptor duplicate;
    duplicate.kind = ProtocolKind::Palermo;
    duplicate.displayName = "Palermo2";
    duplicate.shortToken = "palermo2";
    duplicate.barOrder = 99;
    duplicate.build = [](const SystemConfig &config) {
        return buildProtocolController(ProtocolKind::Palermo, config);
    };
    EXPECT_DEATH(ProtocolRegistry::instance().add(duplicate),
                 "duplicate protocol kind");

    ProtocolDescriptor clash = duplicate;
    clash.kind = static_cast<ProtocolKind>(1000);
    clash.displayName = "PathORAM"; // Name owned by the baseline.
    EXPECT_DEATH(ProtocolRegistry::instance().add(clash),
                 "registered twice");
}

} // namespace
} // namespace palermo
