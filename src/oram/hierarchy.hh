/**
 * @file
 * Hierarchical ORAM plumbing shared by every protocol: configuration,
 * per-level space derivation, tree-top cache sizing, the LLC prefetch
 * residency filter, and the Protocol interface the serial timing
 * controller drives.
 *
 * All designs use three levels (paper §II-D): the Data tree, the PosMap1
 * tree holding Data leaf assignments (fan-out entries per block), and the
 * PosMap2 tree holding PosMap1 assignments; PosMap3 fits on-chip.
 */

#ifndef PALERMO_ORAM_HIERARCHY_HH
#define PALERMO_ORAM_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <list>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/pool.hh"
#include "common/types.hh"
#include "oram/node_meta.hh"
#include "oram/oram_params.hh"
#include "oram/plan.hh"
#include "oram/posmap.hh"
#include "oram/stash.hh"

namespace palermo {

/** Number of hierarchy levels (Data, PosMap1, PosMap2). */
constexpr unsigned kHierLevels = 3;

/** Hierarchy level indices. */
constexpr unsigned kLevelData = 0;
constexpr unsigned kLevelPos1 = 1;
constexpr unsigned kLevelPos2 = 2;

/** Configuration shared by all protocol implementations. */
struct ProtocolConfig
{
    std::uint64_t numBlocks = 1ull << 18; ///< Protected 64B lines.
    unsigned posFanout = 16;      ///< PosMap entries per 64B block.

    // RingORAM / Palermo parameters (paper's chosen (16, 27, 20)).
    unsigned ringZ = 16;
    unsigned ringS = 27;
    unsigned ringA = 20;

    // PathORAM-family bucket size.
    unsigned pathZ = 4;
    unsigned pageZ = 2;           ///< PageORAM's reduced bucket size.

    unsigned prefetchLen = 1;     ///< Block-widening (Palermo) or
                                  ///< same-leaf group size (PrORAM).
    bool fatTree = false;         ///< LAORAM fat-tree capacities.
    bool throttle = true;         ///< PrORAM dynamic prefetch throttle.

    std::size_t stashCapacity = 256;
    std::size_t prStashCapacity = 1024; ///< PrORAM stash (paper Fig. 4).

    /** Tree-top cache byte budget per hierarchy level. */
    std::array<std::uint64_t, kHierLevels> treetopBytes =
        {32 * 1024, 16 * 1024, 8 * 1024};

    std::size_t llcResidentLines = 1ull << 15; ///< Prefetch filter reach.
    std::size_t irTableEntries = 4096; ///< IR-ORAM bypass table.

    std::uint64_t seed = 1;
    Addr dramBase = 0;

    /**
     * Bulk-load every tree at construction (the protected data already
     * exists, as in the paper's testbed). Skipped automatically above
     * kPrefillLimit blocks, where the lazy empty-start geometry is the
     * point (e.g. the 16 GB Table III audit).
     */
    bool prefill = true;

    /** Per-level protected block counts: data, pos1, pos2. */
    std::array<std::uint64_t, kHierLevels> levelBlocks() const;

    /** Decompose a data block id into per-level block ids. */
    std::array<BlockId, kHierLevels> decompose(BlockId pa) const;
};

/**
 * Number of top tree levels a byte budget can pin on-chip (bucket data
 * plus metadata), Phantom tree-top cache style.
 */
unsigned cachedLevelsFor(const OramParams &params, std::uint64_t bytes);

/**
 * Largest space the constructors will bulk-load eagerly. A prefilled
 * tree reserves host capacity for all of its buckets (TreeStore's
 * reservation rule); above this, trees start empty and grow lazily.
 */
constexpr std::uint64_t kPrefillLimit = 1ull << 22;

/**
 * Bulk-load an engine's tree, modeling a pre-existing protected
 * dataset: the start state is every block, in id order, in the deepest
 * non-full bucket of its posmap leaf's residence set, with the rest in
 * the stash in id order. TreeStore::prefill builds it level by level
 * (a few passes per tree, not one path walk per block); its file
 * comment gives the argument that the result is identical.
 */
template <typename Engine>
void
prefillEngine(Engine &engine, const PosMap &posmap)
{
    for (const BlockContent &spill :
         engine.tree().prefill(posmap, engine.siblingMode()))
        engine.stash().put(spill.block, spill.leaf, spill.payload);
}

/**
 * LRU model of prefetched lines resident in the LLC: misses on resident
 * lines bypass the ORAM protocol entirely (PrORAM / Palermo+Prefetch).
 */
class PrefetchFilter
{
  public:
    explicit PrefetchFilter(std::size_t capacity);

    /** True (and refreshed) if the line is resident. */
    bool hit(BlockId line);

    /** Mark a line resident (just prefetched). */
    void insert(BlockId line);

    std::size_t size() const { return map_.size(); }

  private:
    /** Pooled LRU list + flat index so residency churn stays off the
     * heap and lookups stay off pointer chains. Recency order lives in
     * the list alone; the index is lookup-only. */
    using Lru = std::list<BlockId, PoolAllocator<BlockId>>;
    using Index = FlatMap<BlockId, Lru::iterator>;

    std::size_t capacity_;
    PoolResource pool_; ///< Declared before the containers it backs.
    Lru lru_;
    Index map_;
};

/**
 * LIFO free list of whole RequestPlans. acquire() revives the most
 * recently retired plan with its level and phase-op buffer capacities
 * intact, so a steady-state protocol loop stops allocating once its
 * plans have grown to the access working set. Owned by the Protocol
 * base; the driving controller feeds retired plans back via
 * Protocol::recyclePlan().
 */
class PlanRecycler
{
  public:
    /** Take a plan resized to `levels` LevelPlans, scalars reset. */
    RequestPlan acquire(std::size_t levels);

    /** Return a retired plan for later reuse. */
    void recycle(RequestPlan &&plan);

  private:
    /** Bound on hoarded plans; controllers retire promptly, so the
     *  steady-state population is the controller queue depth. */
    static constexpr std::size_t kMaxFree = 64;

    std::vector<RequestPlan> free_;
};

/** Serial-protocol interface consumed by the baseline controller. */
class Protocol
{
  public:
    virtual ~Protocol() = default;

    /**
     * Convert one LLC miss into ORAM request plans, appended to *out
     * (which is not cleared). Most protocols append exactly one plan;
     * PrORAM may prepend background-eviction dummies or append a single
     * llcHit plan when the prefetch filter absorbs the miss. Plans come
     * from the recycler, so controllers should hand retired plans back
     * via recyclePlan() to keep the steady state allocation-free.
     *
     * @param pa Missing 64B line in the protected space.
     * @param write True for store misses.
     * @param value Payload for writes.
     */
    virtual void accessInto(BlockId pa, bool write, std::uint64_t value,
                            std::vector<RequestPlan> *out) = 0;

    /** accessInto() convenience wrapper (tests and benches). */
    std::vector<RequestPlan>
    access(BlockId pa, bool write, std::uint64_t value)
    {
        std::vector<RequestPlan> out;
        accessInto(pa, write, value, &out);
        return out;
    }

    /** Hand a retired plan back for buffer reuse. */
    void recyclePlan(RequestPlan &&plan)
    {
        recycler_.recycle(std::move(plan));
    }

    /**
     * Stash of a hierarchy level (occupancy studies); mutable so
     * samplers can reset the watermark window between observations.
     */
    virtual Stash &stashOf(unsigned level) = 0;

    /** Leaves of the data tree (the attacker-visible address space). */
    virtual std::uint64_t dataLeaves() const = 0;

  protected:
    PlanRecycler recycler_; ///< Plan free list shared by subclasses.
};

} // namespace palermo

#endif // PALERMO_ORAM_HIERARCHY_HH
