/**
 * @file
 * LevelPlan/AccessPlan construction helpers bridging functional
 * protocol execution to the timing controllers.
 */

#include "oram/plan.hh"

namespace palermo {

std::size_t
Phase::readCount() const
{
    std::size_t count = 0;
    for (const auto &op : ops) {
        if (!op.write)
            ++count;
    }
    return count;
}

std::size_t
Phase::writeCount() const
{
    return ops.size() - readCount();
}

std::size_t
LevelPlan::readOps() const
{
    std::size_t count = 0;
    for (const auto &phase : phases)
        count += phase.readCount();
    return count;
}

std::size_t
LevelPlan::writeOps() const
{
    std::size_t count = 0;
    for (const auto &phase : phases)
        count += phase.writeCount();
    return count;
}

const Phase *
LevelPlan::find(PhaseKind kind) const
{
    for (const auto &phase : phases) {
        if (phase.kind == kind)
            return &phase;
    }
    return nullptr;
}

std::size_t
RequestPlan::readOps() const
{
    std::size_t count = 0;
    for (const auto &level : levels)
        count += level.readOps();
    return count;
}

std::size_t
RequestPlan::writeOps() const
{
    std::size_t count = 0;
    for (const auto &level : levels)
        count += level.writeOps();
    return count;
}

} // namespace palermo
