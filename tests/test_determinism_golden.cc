/**
 * @file
 * Golden-file determinism gate for the simulator's hot path.
 *
 * Renders a fixed grid over every protocol to a palermo-metrics-v1
 * document and byte-compares it against tests/golden/metrics_grid.json.
 * This pins the simulation cycle-exactly: any change to engine
 * ordering, stash iteration, DRAM scheduling, or JSON formatting shows
 * up as a byte diff. Perf refactors (like the allocation pooling) must
 * keep this green untouched — that is the "byte-identical metrics
 * JSON" correctness bar from the speed work.
 *
 * The provenance header's "git" value changes every commit, so it is
 * normalized out on both sides before comparing. To regenerate after
 * an INTENDED behavior change:
 *   PALERMO_UPDATE_GOLDEN=1 ./test_determinism_golden
 * and commit the new golden with the change that explains it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/metrics_json.hh"
#include "sim/protocol_registry.hh"

namespace palermo {
namespace {

const char *const kGoldenRelPath = "/tests/golden/metrics_grid.json";

std::string
goldenPath()
{
    return std::string(PALERMO_SOURCE_DIR) + kGoldenRelPath;
}

/**
 * The fixed grid, fixed seed: Palermo and PathORAM at two tree sizes,
 * every other protocol at 2^12 blocks, and PrORAM once more with
 * prefetching and LAORAM's fat tree.
 */
std::string
renderGrid()
{
    struct GridPoint
    {
        ProtocolKind kind;
        unsigned log2Blocks;
        unsigned prefetchLen = 1;
        bool fatTree = false;
    };
    const std::vector<GridPoint> grid = {
        {ProtocolKind::Palermo, 12},
        {ProtocolKind::Palermo, 14},
        {ProtocolKind::PathOram, 12},
        {ProtocolKind::PathOram, 14},
        {ProtocolKind::RingOram, 12},
        {ProtocolKind::PageOram, 12},
        {ProtocolKind::PrOram, 12},
        {ProtocolKind::IrOram, 12},
        {ProtocolKind::PalermoSw, 12},
        {ProtocolKind::PalermoPrefetch, 12},
        {ProtocolKind::PrOram, 12, 4, true},
    };

    std::vector<RunRecord> records;
    for (const GridPoint &point : grid) {
        SystemConfig config;
        config.protocol.numBlocks = 1ull << point.log2Blocks;
        config.totalRequests = 600;
        config.seed = 1;
        config.protocol.prefetchLen = point.prefetchLen;
        config.protocol.fatTree = point.fatTree;
        config = normalizedProtocolConfig(point.kind, config);

        RunRecord record;
        record.point.index = records.size();
        record.point.kind = point.kind;
        record.point.workload = Workload::Random;
        record.point.config = config;
        record.point.id = std::string(protocolShortName(point.kind))
            + "/b" + std::to_string(point.log2Blocks);
        if (point.fatTree)
            record.point.id += "/pf" + std::to_string(point.prefetchLen)
                + "-fat";
        record.metrics =
            runExperiment(point.kind, Workload::Random, config);
        records.push_back(std::move(record));
    }
    return MetricsJson::document("test_determinism_golden", records);
}

/** Blank out the commit-dependent provenance value. */
std::string
normalizeGit(std::string document)
{
    const std::string key = "\"git\": \"";
    const std::size_t start = document.find(key);
    if (start == std::string::npos)
        return document;
    const std::size_t value_start = start + key.size();
    const std::size_t value_end = document.find('"', value_start);
    if (value_end == std::string::npos)
        return document;
    document.replace(value_start, value_end - value_start, "GIT");
    return document;
}

TEST(DeterminismGolden, GridMatchesCheckedInBytes)
{
    const std::string fresh = normalizeGit(renderGrid());
    ASSERT_FALSE(fresh.empty());
    ASSERT_NE(fresh.find("\"git\": \"GIT\""), std::string::npos)
        << "provenance normalization failed";

    if (std::getenv("PALERMO_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << fresh;
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "golden updated: " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << goldenPath()
                    << " (regenerate with PALERMO_UPDATE_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string golden = normalizeGit(buffer.str());

    if (golden == fresh)
        return;
    // Report the first divergent byte so the diff is findable in a
    // multi-kilobyte document.
    std::size_t at = 0;
    while (at < golden.size() && at < fresh.size()
           && golden[at] == fresh[at])
        ++at;
    const std::size_t from = at < 60 ? 0 : at - 60;
    FAIL() << "document diverges from golden at byte " << at
           << "\n...golden: "
           << golden.substr(from, std::min<std::size_t>(
                                      120, golden.size() - from))
           << "\n...fresh:  "
           << fresh.substr(from, std::min<std::size_t>(
                                     120, fresh.size() - from))
           << "\n(if this change is intended, regenerate with "
              "PALERMO_UPDATE_GOLDEN=1 and commit the new golden)";
}

/** Two in-process runs of the same grid must already agree. */
TEST(DeterminismGolden, BackToBackRunsAgree)
{
    EXPECT_EQ(renderGrid(), renderGrid());
}

} // namespace
} // namespace palermo
