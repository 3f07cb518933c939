/**
 * @file
 * Average/Histogram/TimeWeighted bookkeeping and the geometric mean.
 */

#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace palermo {

void
Average::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
Average::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : bucketWidth_(bucket_width), buckets_(num_buckets + 1, 0)
{
    palermo_assert(bucket_width > 0.0);
    palermo_assert(num_buckets > 0);
}

void
Histogram::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    auto idx = static_cast<std::size_t>(std::max(v, 0.0) / bucketWidth_);
    if (idx >= buckets_.size())
        idx = buckets_.size() - 1;
    ++buckets_[idx];
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
Histogram::quantile(double p) const
{
    palermo_assert(p >= 0.0 && p <= 1.0);
    if (count_ == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(p * count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen > target)
            return (i + 0.5) * bucketWidth_;
    }
    return max_;
}

void
TimeWeighted::accumulate(double level, std::uint64_t ticks)
{
    weighted_ += level * ticks;
    ticks_ += ticks;
}

void
TimeWeighted::accumulateExact(std::uint64_t integral, std::uint64_t ticks)
{
    // Bit-identical to per-tick accumulate() of integer levels: both
    // sides only ever add exact integers into weighted_.
    weighted_ += static_cast<double>(integral);
    ticks_ += ticks;
}

void
TimeWeighted::reset()
{
    weighted_ = 0.0;
    ticks_ = 0;
}

double
geomean(const std::vector<double> &values)
{
    palermo_assert(!values.empty());
    double log_sum = 0.0;
    for (double v : values) {
        palermo_assert(v > 0.0);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / values.size());
}

} // namespace palermo
