/**
 * @file
 * Lightweight statistics primitives for the simulator.
 *
 * Counter/Average/Histogram mirror the subset of the gem5 stats package the
 * experiments need: monotonically increasing event counts, running means,
 * and bucketized distributions (used for ORAM response latencies).
 */

#ifndef PALERMO_COMMON_STATS_HH
#define PALERMO_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace palermo {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean/min/max over double samples. */
class Average
{
  public:
    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width-bucket histogram with overflow bucket; supports quantiles
 * (median split drives the mutual-information attacker model).
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket.
     * @param num_buckets Number of regular buckets (plus one overflow).
     */
    explicit Histogram(double bucket_width = 100.0,
                       std::size_t num_buckets = 128);

    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Approximate p-quantile (0 <= p <= 1) from bucket boundaries. */
    double quantile(double p) const;

    /**
     * True when quantile(p) falls in the overflow bucket: the value it
     * returns is then that bucket's fixed midpoint, not a measurement.
     */
    bool quantileClamped(double p) const;

    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

  private:
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Time-weighted accumulator: integrates a level (e.g. queue occupancy)
 * over ticks so that mean() returns the time-average of the level.
 */
class TimeWeighted
{
  public:
    /** Account for the level holding for the given number of ticks. */
    void accumulate(double level, std::uint64_t ticks);

    /**
     * Bulk form for integer-valued levels: add a precomputed integral
     * (sum over `ticks` observations of an integer level) in one step.
     * Integers up to 2^53 are exact in double, and addition of exact
     * integers is associative, so this is bit-identical to `ticks`
     * per-observation accumulate() calls — the property
     * SimSession::settle() relies on when it accounts a deferred span
     * in one step.
     */
    void accumulateExact(std::uint64_t integral, std::uint64_t ticks);

    void reset();

    double mean() const { return ticks_ ? weighted_ / ticks_ : 0.0; }
    std::uint64_t ticks() const { return ticks_; }

  private:
    double weighted_ = 0.0;
    std::uint64_t ticks_ = 0;
};

/** Geometric mean of a vector of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace palermo

#endif // PALERMO_COMMON_STATS_HH
