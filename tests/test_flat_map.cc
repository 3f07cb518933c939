/**
 * @file
 * FlatMap unit tests plus a randomized differential fuzz
 * against std::unordered_map. The fuzz drives insert/erase/find/clear
 * through long churn phases so backward-shift deletion and rehash get
 * exercised at every load factor; the sanitizer CI jobs run this under
 * ASan/UBSan, which is where slot-lifetime bugs would surface.
 */

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace palermo {
namespace {

TEST(FlatMapTest, EmptyMapBehaves)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(7));
    EXPECT_EQ(map.find(7), map.end());
    EXPECT_EQ(map.findValue(7), nullptr);
    EXPECT_EQ(map.erase(7), 0u);
    EXPECT_EQ(map.begin(), map.end());
}

TEST(FlatMapTest, InsertFindErase)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    auto [it, inserted] = map.emplace(42, 1);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(it->first, 42u);
    EXPECT_EQ(it->second, 1u);

    auto [again, fresh] = map.emplace(42, 2);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(again->second, 1u) << "emplace must not overwrite";

    map.insert_or_assign(42, 3);
    EXPECT_EQ(map.at(42), 3u);

    map[99] = 7;
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.at(99), 7u);

    EXPECT_EQ(map.erase(42), 1u);
    EXPECT_EQ(map.erase(42), 0u);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_FALSE(map.contains(42));
    EXPECT_TRUE(map.contains(99));
}

TEST(FlatMapTest, ExtremeKeysAreOrdinary)
{
    // kInvalid (all-ones) is a real key in several tables; FlatMap
    // must not reserve any key value.
    FlatMap<std::uint64_t, int> map;
    map[kInvalid] = 1;
    map[0] = 2;
    EXPECT_EQ(map.at(kInvalid), 1);
    EXPECT_EQ(map.at(0), 2);
    EXPECT_EQ(map.erase(kInvalid), 1u);
    EXPECT_TRUE(map.contains(0));
}

TEST(FlatMapTest, GrowthKeepsAllEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    constexpr std::uint64_t kCount = 10000;
    for (std::uint64_t i = 0; i < kCount; ++i)
        map.emplace(i * 0x10001, i);
    EXPECT_EQ(map.size(), kCount);
    for (std::uint64_t i = 0; i < kCount; ++i) {
        const std::uint64_t *v = map.findValue(i * 0x10001);
        ASSERT_NE(v, nullptr) << "lost key " << i;
        EXPECT_EQ(*v, i);
    }
}

TEST(FlatMapTest, IterationVisitsEachEntryOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t i = 0; i < 257; ++i) {
        map.emplace(i * 31, i);
        ref.emplace(i * 31, i);
    }
    std::size_t seen = 0;
    for (const auto &[key, value] : map) {
        auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(it->second, value);
        ++seen;
    }
    EXPECT_EQ(seen, ref.size());
}

TEST(FlatMapTest, EraseByIteratorCompactsChain)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t i = 0; i < 64; ++i)
        map.emplace(i, static_cast<int>(i));
    auto it = map.find(17);
    ASSERT_NE(it, map.end());
    map.erase(it);
    EXPECT_EQ(map.size(), 63u);
    EXPECT_FALSE(map.contains(17));
    for (std::uint64_t i = 0; i < 64; ++i) {
        if (i != 17) {
            EXPECT_TRUE(map.contains(i)) << i;
        }
    }
}

TEST(FlatMapTest, ClearRetainsCapacity)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t i = 0; i < 100; ++i)
        map.emplace(i, 1);
    const std::size_t cap = map.capacity();
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), cap);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_FALSE(map.contains(i));
    map.emplace(5, 2);
    EXPECT_EQ(map.at(5), 2);
}

TEST(FlatMapTest, ReserveAvoidsRehash)
{
    FlatMap<std::uint64_t, int> map;
    map.reserve(1000);
    const std::size_t cap = map.capacity();
    EXPECT_GE(cap, 1000u);
    for (std::uint64_t i = 0; i < 1000; ++i)
        map.emplace(i, 1);
    EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatMapTest, MoveTransfersTable)
{
    FlatMap<std::uint64_t, int> a;
    for (std::uint64_t i = 0; i < 100; ++i)
        a.emplace(i, static_cast<int>(i));
    FlatMap<std::uint64_t, int> b(std::move(a));
    EXPECT_EQ(b.size(), 100u);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b.at(42), 42);

    FlatMap<std::uint64_t, int> c;
    c.emplace(7, 7);
    c = std::move(b);
    EXPECT_EQ(c.size(), 100u);
    EXPECT_FALSE(c.contains(7) && c.at(7) != 7);
    EXPECT_EQ(c.at(99), 99);
}

TEST(FlatMapTest, NonTrivialValueLifetimes)
{
    // std::string values exercise construct/destroy/move on rehash and
    // backward shift; ASan verifies no leak or double-destroy.
    FlatMap<std::uint64_t, std::string> map;
    for (std::uint64_t i = 0; i < 500; ++i)
        map.emplace(i, std::string(32, static_cast<char>('a' + i % 26)));
    for (std::uint64_t i = 0; i < 500; i += 2)
        map.erase(i);
    for (std::uint64_t i = 1; i < 500; i += 2) {
        const std::string *v = map.findValue(i);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ((*v)[0], static_cast<char>('a' + i % 26));
    }
}

/**
 * Differential fuzz: random operation mix, checked against
 * std::unordered_map after every phase. Keys are drawn from a small
 * domain so erase hits often and probe chains overlap heavily.
 */
void
fuzzAgainstReference(std::uint64_t seed, std::uint64_t key_domain,
                     unsigned rounds)
{
    Rng rng(seed);
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    for (unsigned round = 0; round < rounds; ++round) {
        const unsigned op = static_cast<unsigned>(rng.range(100));
        const std::uint64_t key = rng.range(key_domain);
        if (op < 45) {
            const std::uint64_t value = rng.next();
            auto [it, inserted] = map.emplace(key, value);
            auto [rit, rinserted] = ref.emplace(key, value);
            ASSERT_EQ(inserted, rinserted) << "round " << round;
            ASSERT_EQ(it->second, rit->second);
        } else if (op < 60) {
            const std::uint64_t value = rng.next();
            map.insert_or_assign(key, value);
            ref[key] = value;
        } else if (op < 85) {
            ASSERT_EQ(map.erase(key), ref.erase(key)) << "round " << round;
        } else if (op < 99) {
            const std::uint64_t *v = map.findValue(key);
            auto rit = ref.find(key);
            if (rit == ref.end()) {
                ASSERT_EQ(v, nullptr) << "round " << round << " key " << key;
            } else {
                ASSERT_NE(v, nullptr) << "round " << round << " key " << key;
                ASSERT_EQ(*v, rit->second);
            }
        } else {
            map.clear();
            ref.clear();
        }
        ASSERT_EQ(map.size(), ref.size()) << "round " << round;
    }

    // Full cross-check both directions.
    for (const auto &[key, value] : ref) {
        const std::uint64_t *v = map.findValue(key);
        ASSERT_NE(v, nullptr) << "missing key " << key;
        ASSERT_EQ(*v, value);
    }
    std::size_t visited = 0;
    for (const auto &[key, value] : map) {
        auto rit = ref.find(key);
        ASSERT_NE(rit, ref.end()) << "phantom key " << key;
        ASSERT_EQ(rit->second, value);
        ++visited;
    }
    ASSERT_EQ(visited, ref.size());
}

TEST(FlatMapFuzzTest, SmallDomainHeavyChurn)
{
    fuzzAgainstReference(1, 64, 20000);
}

TEST(FlatMapFuzzTest, MediumDomain)
{
    fuzzAgainstReference(2, 4096, 40000);
}

TEST(FlatMapFuzzTest, LargeDomain)
{
    fuzzAgainstReference(3, 1u << 20, 40000);
}

TEST(FlatMapFuzzTest, ManySeeds)
{
    for (std::uint64_t seed = 10; seed < 18; ++seed)
        fuzzAgainstReference(seed, 256, 8000);
}

} // namespace
} // namespace palermo
