/**
 * @file
 * Speck128/128 key schedule and round functions.
 */

#include "crypto/speck.hh"

namespace palermo {

namespace {

inline std::uint64_t
ror(std::uint64_t x, unsigned r)
{
    return (x >> r) | (x << (64 - r));
}

inline std::uint64_t
rol(std::uint64_t x, unsigned r)
{
    return (x << r) | (x >> (64 - r));
}

// One Speck round on (x, y) with round key k.
inline void
round(std::uint64_t &x, std::uint64_t &y, std::uint64_t k)
{
    x = ror(x, 8);
    x += y;
    x ^= k;
    y = rol(y, 3);
    y ^= x;
}

} // namespace

Speck128::Speck128(const Key &key)
{
    // Key schedule per the Speck specification: the key words feed the
    // same round function with the round index as the key.
    std::uint64_t a = key[0]; // k0
    std::uint64_t b = key[1]; // l0
    for (unsigned i = 0; i < kRounds; ++i) {
        roundKeys_[i] = a;
        round(b, a, static_cast<std::uint64_t>(i));
    }
}

Speck128::Block
Speck128::encrypt(Block plaintext) const
{
    std::uint64_t y = plaintext[0];
    std::uint64_t x = plaintext[1];
    for (unsigned i = 0; i < kRounds; ++i)
        round(x, y, roundKeys_[i]);
    return {y, x};
}

} // namespace palermo
