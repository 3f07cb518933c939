/**
 * @file
 * Speck128/128 block cipher (Beaulieu et al., NSA 2013).
 *
 * The paper's RTL uses AES units; this repo uses Speck because it is a
 * published ARX cipher that is tiny to implement from the specification,
 * fast in software, and a sound keyed permutation for the PRF under the
 * position maps and tenant slices (crypto/prf.hh). The timing model
 * charges decryption as a fixed latency per block (decryptLatency)
 * without running a cipher, so the substitution does not affect any
 * experiment.
 */

#ifndef PALERMO_CRYPTO_SPECK_HH
#define PALERMO_CRYPTO_SPECK_HH

#include <array>
#include <cstdint>

namespace palermo {

/** Speck128/128: 128-bit block, 128-bit key, 32 rounds. */
class Speck128
{
  public:
    using Block = std::array<std::uint64_t, 2>;
    using Key = std::array<std::uint64_t, 2>;

    explicit Speck128(const Key &key);

    /** Encrypt one 128-bit block. */
    Block encrypt(Block plaintext) const;

    static constexpr unsigned kRounds = 32;

  private:
    std::array<std::uint64_t, kRounds> roundKeys_;
};

} // namespace palermo

#endif // PALERMO_CRYPTO_SPECK_HH
