/**
 * @file
 * Arrival-process and key-sampler implementations.
 */

#include "scenario/arrival.hh"

#include <cmath>

#include "common/log.hh"

namespace palermo {

bool
arrivalProcessFromName(const std::string &name, ArrivalProcess *process)
{
    if (name == "poisson")
        *process = ArrivalProcess::Poisson;
    else if (name == "fixed")
        *process = ArrivalProcess::Fixed;
    else
        return false;
    return true;
}

bool
keyDistFromName(const std::string &name, KeyDist *dist)
{
    if (name == "zipf")
        *dist = KeyDist::Zipf;
    else if (name == "uniform")
        *dist = KeyDist::Uniform;
    else
        return false;
    return true;
}

double
arrivalGap(ArrivalProcess process, double mean_gap, Rng &rng)
{
    // Fixed draws nothing: a paced stream and a Poisson stream with the
    // same seed must not share a random sequence prefix.
    if (process == ArrivalProcess::Fixed)
        return mean_gap;
    return -std::log(1.0 - rng.uniform()) * mean_gap;
}

TenantKeySampler::TenantKeySampler(KeyDist dist, double zipf_alpha,
                                   unsigned tenants,
                                   std::uint64_t slice_size,
                                   std::uint64_t seed)
    : dist_(dist), sliceSize_(slice_size),
      rng_(mix64(seed ^ 0x6b657964726177ull))
{
    palermo_assert(slice_size > 0, "key sampler needs a non-empty slice");
    if (dist_ == KeyDist::Zipf) {
        zipf_.reserve(tenants);
        for (unsigned t = 0; t < tenants; ++t)
            zipf_.emplace_back(slice_size, zipf_alpha,
                               mix64(seed ^ (0x5a49u + t)));
    }
}

std::uint64_t
TenantKeySampler::draw(unsigned tenant)
{
    if (dist_ == KeyDist::Zipf)
        return zipf_[tenant].sample();
    return rng_.range(sliceSize_);
}

RateCurve::RateCurve(std::vector<Segment> segments)
    : segments_(std::move(segments))
{
    palermo_assert(!segments_.empty(),
                   "a rate curve needs at least one segment");
}

RateCurve
RateCurve::constant(double rate_per_kilocycle)
{
    return RateCurve({Segment{kTickNever, rate_per_kilocycle}});
}

double
RateCurve::nextArrival(double t, double u) const
{
    double start = t;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const Segment &segment = segments_[i];
        const double end = static_cast<double>(segment.untilCycle);
        if (end <= start && i + 1 < segments_.size())
            continue;
        const double density = segment.ratePerKilocycle / 1000.0;
        const bool last = i + 1 == segments_.size();
        if (last) {
            // The final segment holds forever: either it absorbs the
            // remaining mass or no arrival ever happens.
            if (density <= 0.0)
                return -1.0;
            return start + u / density;
        }
        const double capacity = density * (end - start);
        if (u < capacity)
            return start + u / density;
        u -= capacity;
        start = end;
    }
    return -1.0; // Unreachable: the last segment always returns.
}

double
BurstPattern::wallTime(double active) const
{
    if (alwaysOn())
        return active;
    palermo_assert(on_ > 0, "bursting source needs a positive on-window");
    const double on = static_cast<double>(on_);
    const double period = on + static_cast<double>(off_);
    const double bursts = std::floor(active / on);
    const double remainder = active - bursts * on;
    return bursts * period + remainder;
}

} // namespace palermo
