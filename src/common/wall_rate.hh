/**
 * @file
 * Wall-clock throughput meter for the external drivers.
 *
 * palermo_replay's --progress lines want "requests per wall second
 * since the run started"; this is the one implementation of that
 * computation, so any other driver (a future server main loop) reuses
 * it as-is. Wall-clock values are reporting-only: they never enter
 * JSON documents or any deterministic statistic.
 */

#ifndef PALERMO_COMMON_WALL_RATE_HH
#define PALERMO_COMMON_WALL_RATE_HH

#include <chrono>
#include <cstdint>

namespace palermo {

/** Measures events per wall-clock second since construction. */
class WallRateMeter
{
  public:
    WallRateMeter() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction. */
    double elapsedSeconds() const;

    /**
     * Events per second over the elapsed window; 0 when no time has
     * passed yet (never divides by zero).
     */
    double perSecond(std::uint64_t events) const;

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace palermo

#endif // PALERMO_COMMON_WALL_RATE_HH
