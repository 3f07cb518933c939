/** @file Unit tests for the crypto substrate (Speck, PRF). */

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "common/rng.hh"
#include "crypto/prf.hh"
#include "crypto/speck.hh"

namespace palermo {
namespace {

TEST(Speck, MatchesPublishedTestVector)
{
    // Speck128/128 test vector (Beaulieu et al. 2013, Appendix C). The
    // Speck paper lists words most significant first; Block and Key hold
    // the low word at index 0.
    const Speck128 cipher({0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull});
    const Speck128::Block pt = {0x7469206564616d20ull, 0x6c61766975716520ull};
    const Speck128::Block ct = {0x7860fedf5c570d18ull, 0xa65d985179783265ull};
    EXPECT_EQ(cipher.encrypt(pt), ct);
}

TEST(Speck, EncryptionChangesData)
{
    const Speck128 cipher({1, 2});
    const Speck128::Block plain = {0, 0};
    EXPECT_NE(cipher.encrypt(plain), plain);
}

TEST(Speck, DifferentKeysDifferentCiphertexts)
{
    const Speck128 a({1, 2});
    const Speck128 b({1, 3});
    const Speck128::Block plain = {42, 43};
    EXPECT_NE(a.encrypt(plain), b.encrypt(plain));
}

TEST(Speck, AvalancheOnPlaintextBitFlip)
{
    const Speck128 cipher({0xdeadbeefull, 0xcafef00dull});
    Rng rng(2);
    double total_flips = 0.0;
    const int trials = 200;
    for (int i = 0; i < trials; ++i) {
        Speck128::Block plain = {rng.next(), rng.next()};
        const auto base = cipher.encrypt(plain);
        plain[0] ^= 1ull << (i % 64);
        const auto flipped = cipher.encrypt(plain);
        total_flips += std::popcount(base[0] ^ flipped[0])
            + std::popcount(base[1] ^ flipped[1]);
    }
    // A good cipher flips ~64 of 128 output bits per input bit flip.
    EXPECT_NEAR(total_flips / trials, 64.0, 6.0);
}

TEST(Speck, Injective)
{
    const Speck128 cipher({7, 8});
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        const auto c = cipher.encrypt({i, 0});
        EXPECT_TRUE(seen.insert({c[0], c[1]}).second);
    }
}

TEST(Prf, Deterministic)
{
    const Prf prf(99);
    EXPECT_EQ(prf.eval(123), prf.eval(123));
    EXPECT_NE(prf.eval(123), prf.eval(124));
}

TEST(Prf, KeySeparation)
{
    const Prf a(1);
    const Prf b(2);
    EXPECT_NE(a.eval(5), b.eval(5));
}

TEST(Prf, EvalModBounded)
{
    const Prf prf(7);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_LT(prf.evalMod(i, 37), 37u);
}

TEST(Prf, EvalModRoughlyUniform)
{
    const Prf prf(8);
    std::array<int, 16> counts{};
    const int n = 16000;
    for (int i = 0; i < n; ++i)
        ++counts[prf.evalMod(i, 16)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 16, n / 16 / 3);
}

} // namespace
} // namespace palermo
