/**
 * @file
 * Shared traffic-shape primitives: arrival processes and key samplers.
 *
 * One home for the randomness that turns a seed into client behavior,
 * used by the multi-tenant scenario engine (src/scenario/engine, which
 * also runs the --sweep saturation curves) and by any external driver
 * that shapes its own traffic over ObliviousKvService. Arrival
 * instants accumulate in exact doubles so fixed-interval streams never
 * drift; every sampler draws from an explicitly seeded Rng, so a
 * traffic source is a pure function of (spec, seed) and merged
 * multi-source schedules are byte-deterministic.
 *
 * The RateCurve solves the inhomogeneous-Poisson inversion for
 * piecewise-constant rate functions (diurnal curves), and
 * BurstPattern maps "active time" onto wall time for on/off sources:
 * a bursty tenant is an ordinary arrival process run on a clock that
 * only advances during its on-windows.
 */

#ifndef PALERMO_SCENARIO_ARRIVAL_HH
#define PALERMO_SCENARIO_ARRIVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace palermo {

/** How open-loop arrival instants are spaced. */
enum class ArrivalProcess
{
    Poisson, ///< Exponential inter-arrival gaps (memoryless clients).
    Fixed,   ///< Constant inter-arrival gaps (paced clients).
};

/** Parse "poisson"/"fixed"; returns false on unknown names. */
bool arrivalProcessFromName(const std::string &name,
                            ArrivalProcess *process);

/** How keys are drawn within a tenant's namespace. */
enum class KeyDist
{
    Zipf,    ///< Skewed popularity (hot keys), alpha-parameterized.
    Uniform, ///< Every key equally likely.
};

/** Parse "zipf"/"uniform"; returns false on unknown names. */
bool keyDistFromName(const std::string &name, KeyDist *dist);

/**
 * One inter-arrival gap in cycles: exactly @p mean_gap for Fixed
 * (consumes no randomness), exponential with that mean for Poisson
 * (consumes one uniform draw).
 */
double arrivalGap(ArrivalProcess process, double mean_gap, Rng &rng);

/**
 * Per-tenant key source: one sampler per tenant namespace, Zipf or
 * uniform over [0, slice_size). Seeding is a pure function of
 * (seed, tenant), so two instances with the same parameters produce
 * identical draw sequences.
 */
class TenantKeySampler
{
  public:
    TenantKeySampler(KeyDist dist, double zipf_alpha, unsigned tenants,
                     std::uint64_t slice_size, std::uint64_t seed);

    /** Draw one key in [0, sliceSize) for the given tenant. */
    std::uint64_t draw(unsigned tenant);

    std::uint64_t sliceSize() const { return sliceSize_; }

  private:
    KeyDist dist_;
    std::uint64_t sliceSize_;
    Rng rng_;
    std::vector<ZipfSampler> zipf_;
};

/**
 * Piecewise-constant rate function (requests per kilocycle). Segments
 * cover [0, boundary_0), [boundary_0, boundary_1), ...; time beyond
 * the last boundary holds the final segment's rate. A single-segment
 * curve is a plain constant rate.
 */
class RateCurve
{
  public:
    struct Segment
    {
        std::uint64_t untilCycle; ///< Exclusive end (kTickNever = open).
        double ratePerKilocycle;  ///< >= 0; 0 means silent.
    };

    explicit RateCurve(std::vector<Segment> segments);

    /** Constant-rate convenience. */
    static RateCurve constant(double rate_per_kilocycle);

    /**
     * Next arrival instant after @p t for a unit-mean exponential (or
     * deterministic, for Fixed) draw @p u: solves the integral
     * `∫_t^T rate(s)/1000 ds = u` for T. Returns a negative value when
     * the curve is silent forever after t (no further arrival).
     */
    double nextArrival(double t, double u) const;

  private:
    std::vector<Segment> segments_;
};

/**
 * Deterministic on/off gating: the source is active during
 * [k*(on+off), k*(on+off)+on) for k = 0, 1, .... Arrival processes
 * run on the active-time clock; wallTime() maps an active-time
 * instant back onto the simulated clock. on == 0 disables the source;
 * off == 0 means always on.
 */
class BurstPattern
{
  public:
    BurstPattern(std::uint64_t on_cycles, std::uint64_t off_cycles)
        : on_(on_cycles), off_(off_cycles)
    {
    }

    bool alwaysOn() const { return off_ == 0; }

    /** Map cumulative active time to the simulated-clock instant. */
    double wallTime(double active) const;

  private:
    std::uint64_t on_;
    std::uint64_t off_;
};

} // namespace palermo

#endif // PALERMO_SCENARIO_ARRIVAL_HH
