/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Provides a xoshiro256** engine seeded via SplitMix64 plus distribution
 * helpers (uniform ranges, Zipf sampler). All randomness in the repository
 * flows through Rng so that every experiment is reproducible from a seed.
 */

#ifndef PALERMO_COMMON_RNG_HH
#define PALERMO_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace palermo {

/** SplitMix64 step; used for seeding and as a cheap stateless mixer. */
std::uint64_t splitMix64(std::uint64_t &state);

/** One-shot 64-bit mix of a value (stateless hash). */
std::uint64_t mix64(std::uint64_t value);

/**
 * xoshiro256** PRNG. Small, fast, and high quality; all simulator
 * randomness (leaf selection, trace generation) uses this engine.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Re-seed the engine deterministically from a 64-bit seed. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit output. */
    std::uint64_t next();

    /** Uniform integer in [0, bound), bound > 0 (unbiased via rejection). */
    std::uint64_t range(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli draw with probability p of true. */
    bool chance(double p);

  private:
    std::uint64_t s_[4];
};

/**
 * Zipf(alpha) sampler over [0, n) using inverse-CDF with a precomputed
 * cumulative table (exact, O(log n) per sample). Models the skewed
 * popularity of keys/tokens/embedding rows in the paper's workloads.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items.
     * @param alpha Skew parameter (0 = uniform; ~0.99 typical for KV).
     * @param seed RNG seed for this sampler.
     */
    ZipfSampler(std::uint64_t n, double alpha, std::uint64_t seed);

    /** Draw one item index in [0, n). Rank 0 is the most popular item. */
    std::uint64_t sample();

  private:
    std::uint64_t n_;
    double alpha_;
    Rng rng_;
    std::vector<double> cdf_;
    /** Probability mass covered by the exact head table. */
    double headMass_ = 1.0;
};

} // namespace palermo

#endif // PALERMO_COMMON_RNG_HH
