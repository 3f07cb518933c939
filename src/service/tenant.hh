/**
 * @file
 * Per-tenant namespaces over one shared protected block space.
 *
 * The serving layer multiplexes many tenants onto a single ORAM
 * instance: each tenant owns a contiguous slice of the protected
 * space, and its keys are hashed by a keyed PRF into that slice only.
 * Isolation is structural — blockOf(tenant, key) cannot produce a
 * block outside the tenant's slice for any key — so tenant A's
 * traffic can never read or evict tenant B's lines, while the ORAM
 * below still makes the merged access sequence look uniform to the
 * cloud.
 *
 * Slices are floor(numBlocks / tenants) lines each; the remainder
 * lines at the top of the space are deliberately left unmapped so
 * every tenant gets an identically sized namespace (fairness tests
 * rely on this symmetry).
 */

#ifndef PALERMO_SERVICE_TENANT_HH
#define PALERMO_SERVICE_TENANT_HH

#include <cstdint>

#include "common/types.hh"
#include "crypto/prf.hh"

namespace palermo {

/** Maps (tenant, key) pairs onto disjoint block-space slices. */
class TenantDirectory
{
  public:
    /**
     * @param tenants Number of namespaces (>= 1).
     * @param num_blocks Shared protected-space size in lines; must
     *        allow at least one line per tenant.
     * @param seed Keys the PRF so layouts differ across seeds.
     */
    TenantDirectory(unsigned tenants, std::uint64_t num_blocks,
                    std::uint64_t seed);

    /** Lines in every tenant's slice (identical by construction). */
    std::uint64_t sliceSize() const { return sliceSize_; }

    /** First line of a tenant's slice. */
    std::uint64_t sliceBase(unsigned tenant) const;

    /**
     * Resolve a 64-bit key into the tenant's slice. Deterministic in
     * (seed, tenant, key); always within [sliceBase, sliceBase +
     * sliceSize).
     */
    BlockId blockOf(unsigned tenant, std::uint64_t key) const;

    /** Does this line fall inside the tenant's slice? */
    bool owns(unsigned tenant, BlockId block) const;

  private:
    unsigned tenants_;
    std::uint64_t sliceSize_;
    Prf hasher_;
};

} // namespace palermo

#endif // PALERMO_SERVICE_TENANT_HH
