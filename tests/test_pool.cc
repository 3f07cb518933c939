/** @file Unit + property tests for the hot-path allocation pools. */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/pool.hh"

namespace palermo {
namespace {

TEST(PoolResource, ServesDistinctBlocks)
{
    PoolResource pool;
    void *a = pool.allocate(64, 8);
    void *b = pool.allocate(64, 8);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    // Both blocks are writable over their full size.
    std::memset(a, 0xAA, 64);
    std::memset(b, 0x55, 64);
    pool.deallocate(a, 64, 8);
    pool.deallocate(b, 64, 8);
}

TEST(PoolResource, ReusesFreedBlocksLifo)
{
    PoolResource pool;
    void *a = pool.allocate(48, 8);
    void *b = pool.allocate(48, 8);
    pool.deallocate(a, 48, 8);
    pool.deallocate(b, 48, 8);
    // LIFO: the most recently freed block comes back first.
    EXPECT_EQ(pool.allocate(48, 8), b);
    EXPECT_EQ(pool.allocate(48, 8), a);
    EXPECT_EQ(pool.reuseHits(), 2u);
}

TEST(PoolResource, SizeClassesDoNotMix)
{
    PoolResource pool;
    void *small = pool.allocate(16, 8);
    pool.deallocate(small, 16, 8);
    // A larger request must not be served from the 16-byte class.
    void *large = pool.allocate(256, 8);
    EXPECT_NE(large, small);
    pool.deallocate(large, 256, 8);
}

TEST(PoolResource, LiveBytesTracksOutstanding)
{
    PoolResource pool;
    EXPECT_EQ(pool.liveBytes(), 0u);
    void *a = pool.allocate(100, 8);
    const std::size_t live = pool.liveBytes();
    EXPECT_GE(live, 100u); // Rounded up to the size class.
    void *b = pool.allocate(100, 8);
    EXPECT_EQ(pool.liveBytes(), 2 * live);
    pool.deallocate(b, 100, 8);
    pool.deallocate(a, 100, 8);
    EXPECT_EQ(pool.liveBytes(), 0u);
}

TEST(PoolResource, GrowsNewChunksAtCapacity)
{
    PoolResource pool(/*chunk_bytes=*/256);
    std::vector<void *> blocks;
    for (int i = 0; i < 64; ++i)
        blocks.push_back(pool.allocate(64, 8));
    EXPECT_GT(pool.chunkCount(), 1u);
    // Everything stays usable across chunk growth.
    for (void *p : blocks)
        std::memset(p, 0x5A, 64);
    for (void *p : blocks)
        pool.deallocate(p, 64, 8);
    // Steady state: the same working set re-allocates with no growth.
    const std::size_t chunks = pool.chunkCount();
    for (int round = 0; round < 4; ++round) {
        blocks.clear();
        for (int i = 0; i < 64; ++i)
            blocks.push_back(pool.allocate(64, 8));
        for (void *p : blocks)
            pool.deallocate(p, 64, 8);
    }
    EXPECT_EQ(pool.chunkCount(), chunks);
    EXPECT_GT(pool.reuseHits(), 0u);
}

TEST(PoolResource, OversizedRequestGetsOwnChunk)
{
    PoolResource pool(/*chunk_bytes=*/128);
    void *big = pool.allocate(4096, 8);
    ASSERT_NE(big, nullptr);
    std::memset(big, 0x11, 4096);
    pool.deallocate(big, 4096, 8);
    EXPECT_EQ(pool.allocate(4096, 8), big);
}

TEST(PoolResource, OverAlignedRequestsWork)
{
    PoolResource pool;
    constexpr std::size_t align = 2 * alignof(std::max_align_t);
    void *p = pool.allocate(align, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
    pool.deallocate(p, align, align);
}

TEST(PoolAllocator, StdContainersRecycleNodes)
{
    PoolResource pool;
    using Alloc = PoolAllocator<std::pair<const int, int>>;
    std::unordered_map<int, int, std::hash<int>, std::equal_to<int>,
                       Alloc>
        map{Alloc(&pool)};
    for (int i = 0; i < 100; ++i)
        map[i] = i;
    for (int i = 0; i < 100; ++i)
        map.erase(i);
    const std::size_t chunks = pool.chunkCount();
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 100; ++i)
            map[i] = i;
        for (int i = 0; i < 100; ++i)
            map.erase(i);
    }
    // Refilling the same map reuses freed nodes, never new chunks.
    EXPECT_EQ(pool.chunkCount(), chunks);
    EXPECT_GT(pool.reuseHits(), 0u);
}

TEST(PoolAllocator, DequeAndListShareOneResource)
{
    PoolResource pool;
    std::deque<int, PoolAllocator<int>> deque{PoolAllocator<int>(&pool)};
    std::list<int, PoolAllocator<int>> list{PoolAllocator<int>(&pool)};
    for (int i = 0; i < 1000; ++i) {
        deque.push_back(i);
        list.push_back(i);
    }
    while (!deque.empty())
        deque.pop_front();
    list.clear();
    EXPECT_GT(pool.chunkCount(), 0u);
    // Distinct element sizes land in distinct size classes; refills hit
    // the free lists.
    const std::size_t chunks = pool.chunkCount();
    for (int i = 0; i < 1000; ++i) {
        deque.push_back(i);
        list.push_back(i);
    }
    EXPECT_EQ(pool.chunkCount(), chunks);
}

TEST(PoolAllocator, EqualityMeansSameResource)
{
    PoolResource a;
    PoolResource b;
    EXPECT_TRUE(PoolAllocator<int>(&a) == PoolAllocator<char>(&a));
    EXPECT_TRUE(PoolAllocator<int>(&a) != PoolAllocator<int>(&b));
}

/**
 * Property sweep: a pseudo-random allocate/deallocate interleaving
 * with content checks. Under ASan this doubles as a no-double-free,
 * no-overlap, no-use-after-free check on the pool's bookkeeping.
 */
TEST(PoolResource, RandomInterleavingKeepsBlocksDisjoint)
{
    PoolResource pool(/*chunk_bytes=*/512);
    struct Live
    {
        unsigned char *p;
        std::size_t bytes;
        unsigned char fill;
    };
    std::vector<Live> live;
    std::uint64_t state = 0x243F6A8885A308D3ull; // Deterministic LCG.
    const auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(state >> 33);
    };

    for (int step = 0; step < 5000; ++step) {
        const bool allocate = live.empty() || (next() % 3u) != 0u;
        if (allocate) {
            const std::size_t bytes = 8 + next() % 300;
            auto *p = static_cast<unsigned char *>(
                pool.allocate(bytes, 8));
            const auto fill = static_cast<unsigned char>(next());
            std::memset(p, fill, bytes);
            live.push_back(Live{p, bytes, fill});
        } else {
            const std::size_t victim = next() % live.size();
            const Live entry = live[victim];
            // The block still holds its fill: nothing overlapped it.
            for (std::size_t i = 0; i < entry.bytes; ++i)
                ASSERT_EQ(entry.p[i], entry.fill);
            pool.deallocate(entry.p, entry.bytes, 8);
            live[victim] = live.back();
            live.pop_back();
        }
    }
    for (const Live &entry : live) {
        for (std::size_t i = 0; i < entry.bytes; ++i)
            ASSERT_EQ(entry.p[i], entry.fill);
        pool.deallocate(entry.p, entry.bytes, 8);
    }
    EXPECT_EQ(pool.liveBytes(), 0u);
}

} // namespace
} // namespace palermo
