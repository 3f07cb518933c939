/**
 * @file Traffic-shape primitive tests: arrival gaps (Fixed consumes
 * no randomness, Poisson has the right mean), tenant key samplers
 * (range, determinism, Zipf skew), the piecewise RateCurve inversion
 * against numerical integration, and BurstPattern's active-to-wall
 * clock mapping.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "scenario/arrival.hh"

namespace palermo {
namespace {

TEST(ArrivalTest, NamesRoundTrip)
{
    ArrivalProcess process = ArrivalProcess::Fixed;
    EXPECT_TRUE(arrivalProcessFromName("poisson", &process));
    EXPECT_EQ(process, ArrivalProcess::Poisson);
    EXPECT_TRUE(arrivalProcessFromName("fixed", &process));
    EXPECT_EQ(process, ArrivalProcess::Fixed);
    EXPECT_FALSE(arrivalProcessFromName("bursty", &process));

    KeyDist dist = KeyDist::Zipf;
    EXPECT_TRUE(keyDistFromName("uniform", &dist));
    EXPECT_EQ(dist, KeyDist::Uniform);
    EXPECT_TRUE(keyDistFromName("zipf", &dist));
    EXPECT_EQ(dist, KeyDist::Zipf);
    EXPECT_FALSE(keyDistFromName("hot", &dist));
}

TEST(ArrivalTest, FixedGapConsumesNoRandomness)
{
    Rng a(42), b(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(arrivalGap(ArrivalProcess::Fixed, 125.0, a),
                         125.0);
    // The rng was never touched: it still matches a fresh copy.
    EXPECT_EQ(a.next(), b.next());
}

TEST(ArrivalTest, PoissonGapHasExponentialMean)
{
    Rng rng(7);
    const double mean = 200.0;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double gap = arrivalGap(ArrivalProcess::Poisson, mean, rng);
        EXPECT_GE(gap, 0.0);
        sum += gap;
    }
    // Sample mean of Exp(1/200) concentrates within a few percent.
    EXPECT_NEAR(sum / n, mean, mean * 0.05);
}

TEST(ArrivalTest, KeySamplerStaysInSliceAndIsDeterministic)
{
    const std::uint64_t slice = 1000;
    TenantKeySampler a(KeyDist::Uniform, 0.99, 3, slice, 99);
    TenantKeySampler b(KeyDist::Uniform, 0.99, 3, slice, 99);
    for (int i = 0; i < 500; ++i) {
        const unsigned tenant = static_cast<unsigned>(i % 3);
        const std::uint64_t key = a.draw(tenant);
        EXPECT_LT(key, slice);
        EXPECT_EQ(key, b.draw(tenant));
    }
}

TEST(ArrivalTest, ZipfSamplerSkewsTowardHotKeys)
{
    const std::uint64_t slice = 4096;
    TenantKeySampler sampler(KeyDist::Zipf, 1.2, 1, slice, 5);
    std::uint64_t hot = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        if (sampler.draw(0) < slice / 16)
            ++hot;
    // Under uniformity the hot 1/16th would get ~6% of draws; a 1.2
    // Zipf concentrates far more than that.
    EXPECT_GT(hot, n / 4);
}

TEST(ArrivalTest, ZipfTenantsDrawIndependentSequences)
{
    TenantKeySampler sampler(KeyDist::Zipf, 0.99, 2, 4096, 11);
    int same = 0;
    for (int i = 0; i < 200; ++i)
        if (sampler.draw(0) == sampler.draw(1))
            ++same;
    EXPECT_LT(same, 100);
}

TEST(RateCurveTest, ConstantCurveInvertsExactly)
{
    const RateCurve curve = RateCurve::constant(2.0);
    // rate 2/kilocycle = density 0.002; u = 1 -> gap 500 cycles.
    EXPECT_NEAR(curve.nextArrival(100.0, 1.0), 600.0, 1e-9);
}

TEST(RateCurveTest, PiecewiseInversionCrossesSegments)
{
    // 1/kc until cycle 1000, then 4/kc.
    const RateCurve curve({{1000, 1.0}, {kTickNever, 4.0}});
    // From t=500: 0.5 units of integral to the boundary (500 cycles at
    // density 0.001), remaining 1.5 units at density 0.004 = 375.
    EXPECT_NEAR(curve.nextArrival(500.0, 2.0), 1375.0, 1e-9);
    // A draw fully inside the first segment never sees the second.
    EXPECT_NEAR(curve.nextArrival(0.0, 0.5), 500.0, 1e-9);
}

TEST(RateCurveTest, SilentTailReturnsNegative)
{
    const RateCurve curve({{1000, 1.0}, {kTickNever, 0.0}});
    // Only 1 unit of integral remains after t=0; asking for 2 runs
    // off the silent end.
    EXPECT_LT(curve.nextArrival(0.0, 2.0), 0.0);
    EXPECT_GT(curve.nextArrival(0.0, 0.5), 0.0);
}

TEST(BurstPatternTest, AlwaysOnIsIdentity)
{
    const BurstPattern burst(5000, 0);
    EXPECT_TRUE(burst.alwaysOn());
    EXPECT_DOUBLE_EQ(burst.wallTime(1234.5), 1234.5);
}

TEST(BurstPatternTest, OffWindowsStretchWallTime)
{
    const BurstPattern burst(100, 300);
    EXPECT_FALSE(burst.alwaysOn());
    // Inside the first on-window: unchanged.
    EXPECT_DOUBLE_EQ(burst.wallTime(50.0), 50.0);
    // One full burst consumed: active 150 = 100 on + skip 300 off + 50.
    EXPECT_DOUBLE_EQ(burst.wallTime(150.0), 450.0);
    // Two full bursts.
    EXPECT_DOUBLE_EQ(burst.wallTime(250.0), 850.0);
}

} // namespace
} // namespace palermo
