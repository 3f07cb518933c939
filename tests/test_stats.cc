/** @file Unit tests for the statistics primitives. */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace palermo {
namespace {

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, TracksMeanMinMax)
{
    Average avg;
    avg.sample(2.0);
    avg.sample(4.0);
    avg.sample(9.0);
    EXPECT_EQ(avg.count(), 3u);
    EXPECT_DOUBLE_EQ(avg.mean(), 5.0);
    EXPECT_DOUBLE_EQ(avg.min(), 2.0);
    EXPECT_DOUBLE_EQ(avg.max(), 9.0);
}

TEST(Average, EmptyIsZero)
{
    Average avg;
    EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
    EXPECT_DOUBLE_EQ(avg.min(), 0.0);
    EXPECT_DOUBLE_EQ(avg.max(), 0.0);
}

TEST(Histogram, CountsAndMean)
{
    Histogram h(10.0, 10);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(25.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, OverflowBucketCatchesLargeSamples)
{
    Histogram h(1.0, 4);
    h.sample(1000.0);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Histogram, MedianApproximation)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(1.0, 4);
    h.sample(1.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    for (auto b : h.buckets())
        EXPECT_EQ(b, 0u);
}

TEST(TimeWeighted, TimeAverage)
{
    TimeWeighted tw;
    tw.accumulate(10.0, 3);
    tw.accumulate(0.0, 7);
    EXPECT_DOUBLE_EQ(tw.mean(), 3.0);
    EXPECT_EQ(tw.ticks(), 10u);
}

TEST(TimeWeighted, ResetClears)
{
    TimeWeighted tw;
    tw.accumulate(5.0, 2);
    tw.reset();
    EXPECT_DOUBLE_EQ(tw.mean(), 0.0);
}

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-9);
}

} // namespace
} // namespace palermo
