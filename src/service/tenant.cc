/**
 * @file
 * TenantDirectory: PRF key-to-slice resolution and slice geometry.
 */

#include "service/tenant.hh"

#include "common/log.hh"
#include "common/rng.hh"

namespace palermo {

TenantDirectory::TenantDirectory(unsigned tenants,
                                 std::uint64_t num_blocks,
                                 std::uint64_t seed)
    : tenants_(tenants), sliceSize_(tenants ? num_blocks / tenants : 0),
      hasher_(mix64(seed ^ 0x74656e616e747321ull))
{
    palermo_assert(tenants >= 1, "need at least one tenant");
    palermo_assert(sliceSize_ >= 1,
                   "protected space too small for the tenant count");
}

std::uint64_t
TenantDirectory::sliceBase(unsigned tenant) const
{
    palermo_assert(tenant < tenants_, "tenant index out of range");
    return static_cast<std::uint64_t>(tenant) * sliceSize_;
}

BlockId
TenantDirectory::blockOf(unsigned tenant, std::uint64_t key) const
{
    // Domain-separate tenants before hashing so equal keys land on
    // unrelated offsets in different slices.
    const std::uint64_t input =
        key ^ mix64(static_cast<std::uint64_t>(tenant) + 1);
    return sliceBase(tenant) + hasher_.evalMod(input, sliceSize_);
}

bool
TenantDirectory::owns(unsigned tenant, BlockId block) const
{
    const std::uint64_t base = sliceBase(tenant);
    return block >= base && block < base + sliceSize_;
}

} // namespace palermo
