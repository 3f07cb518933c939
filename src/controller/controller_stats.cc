/**
 * @file
 * Per-level cycle attribution (Fig. 3b), latency histogram, and
 * security-sample collection shared by all timing controllers.
 */

#include "controller/controller_stats.hh"

namespace palermo {

double
ControllerStats::syncFraction() const
{
    std::uint64_t busy = 0;
    std::uint64_t sync = 0;
    for (unsigned level = 0; level < kHierLevels; ++level) {
        busy += dramCycles[level] + syncCycles[level];
        sync += syncCycles[level];
    }
    return busy ? static_cast<double>(sync) / busy : 0.0;
}

double
ControllerStats::levelShare(unsigned level, bool dram) const
{
    std::uint64_t busy = 0;
    for (unsigned l = 0; l < kHierLevels; ++l)
        busy += dramCycles[l] + syncCycles[l];
    if (busy == 0)
        return 0.0;
    const std::uint64_t part =
        dram ? dramCycles[level] : syncCycles[level];
    return static_cast<double>(part) / busy;
}

} // namespace palermo
