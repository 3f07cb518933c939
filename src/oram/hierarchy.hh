/**
 * @file
 * Hierarchical ORAM plumbing shared by every protocol: configuration,
 * per-level space derivation, tree-top cache sizing, the LLC prefetch
 * residency filter, the three-level Hierarchy every protocol is built
 * on, and the Protocol interface the serial timing controller drives.
 *
 * All designs use three levels (paper §II-D): the Data tree, the PosMap1
 * tree holding Data leaf assignments (fan-out entries per block), and the
 * PosMap2 tree holding PosMap1 assignments; PosMap3 fits on-chip. This
 * is the position-map recursion of Path ORAM (Stefanov et al.).
 * Hierarchy<Engine> owns the three engines and position maps, builds
 * them in one loop from the per-level shape a protocol hands it, and
 * performs the per-level remap step; a protocol adds only its own rules
 * (IR-ORAM's bypass, PrORAM's groups and dummies, Palermo's pending
 * leaves).
 */

#ifndef PALERMO_ORAM_HIERARCHY_HH
#define PALERMO_ORAM_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/rng.hh"
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

    std::uint64_t seed = 1;

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
 * Largest space a Hierarchy will bulk-load eagerly. A prefilled
 * tree reserves host capacity for all of its buckets and indexes all
 * of its nodes directly (TreeStore's reservation rule); its position
 * map stores every leaf up to this size too (PosMap::kDenseLimit), and
 * the bulk load reads them from it. Above this, trees start empty and
 * grow lazily.
 */
constexpr std::uint64_t kPrefillLimit = 1ull << 22;

/**
 * Bulk-load an engine's tree, modeling a pre-existing protected
 * dataset: the start state is every block, in id order, in the deepest
 * non-full bucket of its posmap leaf's residence set, with the rest in
 * the stash in id order. TreeStore::prefill builds it in leaf order,
 * one subtree at a time (a few sequential passes per tree, not one
 * path walk per block); its file comment gives the argument that the
 * result is identical.
 */
template <typename Engine>
void
prefillEngine(Engine &engine, const PosMap &posmap)
{
    for (const BlockContent &spill :
         engine.tree().prefill(posmap, engine.siblingMode()))
        engine.stash().put(spill.block, spill.leaf, spill.payload);
}

/** A protocol's seeds: one RNG salt and two per-level seed strides. */
struct HierarchySeeds
{
    std::uint64_t salt;         ///< Protocol RNG: mix64(seed) ^ salt.
    std::uint64_t engineStride; ///< Engine: mix64(seed + stride * level).
    std::uint64_t posmapStride; ///< PosMap: mix64(seed + stride * level).
};

/** One level's tree, as a protocol shapes it. */
struct LevelShape
{
    OramParams params;         ///< Geometry; numBlocks is the level's space.
    std::size_t stashCapacity; ///< Stash bound of the level's engine.
    unsigned posmapGroup = 1;  ///< Blocks per shared default leaf.
};

/**
 * The three trees of one protocol, Data to PosMap2, each an Engine
 * (RingEngine or PathEngine) with its position map, plus the protocol
 * RNG that draws every remap leaf.
 */
template <typename Engine>
class Hierarchy
{
  public:
    /**
     * Build the levels, Data first. Each level gets its shape, the
     * tree-top levels its budget buys, its engine and position map,
     * and (up to kPrefillLimit blocks) the prefilled start state. The
     * trees sit back to back in DRAM from address 0.
     *
     * @param shape shape(level, blocks) -> LevelShape, where blocks is
     *        config.levelBlocks()[level].
     * @param make make(params, base, cached_levels, seed,
     *        stash_capacity) -> std::unique_ptr<Engine>.
     */
    template <typename Shape, typename Make>
    Hierarchy(const ProtocolConfig &config, const HierarchySeeds &seeds,
              Shape shape, Make make)
        : config_(config), rng_(mix64(config.seed) ^ seeds.salt)
    {
        const auto blocks = config.levelBlocks();
        Addr base = 0;
        for (unsigned level = 0; level < kHierLevels; ++level) {
            const LevelShape tree = shape(level, blocks[level]);
            const OramParams &params = tree.params;
            engines_[level] = make(
                params, base,
                cachedLevelsFor(params, config.treetopBytes[level]),
                mix64(config.seed + seeds.engineStride * level),
                tree.stashCapacity);
            posMaps_[level] = std::make_unique<PosMap>(
                params.numBlocks, params.numLeaves,
                mix64(config.seed + seeds.posmapStride * level),
                tree.posmapGroup);
            if (config.prefill && params.numBlocks <= kPrefillLimit)
                prefillEngine(*engines_[level], *posMaps_[level]);
            base = engines_[level]->layout().endAddr();
        }
    }

    const ProtocolConfig &config() const { return config_; }
    Engine &engine(unsigned level) { return *engines_[level]; }
    const Engine &engine(unsigned level) const { return *engines_[level]; }
    PosMap &posMap(unsigned level) { return *posMaps_[level]; }
    const PosMap &posMap(unsigned level) const { return *posMaps_[level]; }

    Stash &
    stash(unsigned level)
    {
        palermo_assert(level < kHierLevels);
        return engines_[level]->stash();
    }

    /** Leaves of the data tree (the attacker-visible address space). */
    std::uint64_t
    dataLeaves() const
    {
        return engines_[kLevelData]->params().numLeaves;
    }

    /**
     * Data-tree invariant for one block: it is in the stash or in a
     * bucket its mapped leaf may use.
     */
    bool
    dataInvariantHolds(BlockId block) const
    {
        return engines_[kLevelData]->satisfiesInvariant(
            block, posMaps_[kLevelData]->get(block));
    }

    /** A uniform leaf of a level's tree, from the protocol RNG. */
    Leaf
    randomLeaf(unsigned level)
    {
        return rng_.range(engines_[level]->params().numLeaves);
    }

    /**
     * One level's access: draw the block's new leaf, record it in the
     * position map, then read the path of `leaf` and remap the block
     * into `plan`.
     */
    void
    remapInto(unsigned level, BlockId block, Leaf leaf, LevelPlan *plan)
    {
        const Leaf new_leaf = randomLeaf(level);
        posMaps_[level]->set(block, new_leaf);
        engines_[level]->accessInto(block, leaf, new_leaf, plan);
        plan->level = level;
    }

    /** remapInto() along the block's mapped leaf. */
    void
    remapInto(unsigned level, BlockId block, LevelPlan *plan)
    {
        remapInto(level, block, posMaps_[level]->get(block), plan);
    }

    /**
     * Remap the PosMap2 and PosMap1 blocks covering data block `pa`
     * into plan->levels[0] and [1]: the recursion's execution order is
     * deepest PosMap first.
     */
    void
    remapPosMapsInto(BlockId pa, RequestPlan *plan)
    {
        const auto ids = config_.decompose(pa);
        remapInto(kLevelPos2, ids[kLevelPos2], &plan->levels[0]);
        remapInto(kLevelPos1, ids[kLevelPos1], &plan->levels[1]);
    }

    /** Apply a store to a stashed data block and return its payload. */
    std::uint64_t
    serve(BlockId block, bool write, std::uint64_t value)
    {
        Engine &data = *engines_[kLevelData];
        if (write)
            data.setPayload(block, value);
        return data.payloadOf(block);
    }

    /**
     * The plain recursive access of RingORAM, PathORAM and PageORAM
     * into a three-level plan: both PosMap levels, then the data
     * block, which is served from the stash.
     */
    void
    accessInto(BlockId pa, bool write, std::uint64_t value,
               RequestPlan *plan)
    {
        plan->pa = pa;
        plan->write = write;
        remapPosMapsInto(pa, plan);
        remapInto(kLevelData, pa, &plan->levels.back());
        plan->value = serve(pa, write, value);
    }

  private:
    ProtocolConfig config_;
    Rng rng_;
    std::array<std::unique_ptr<Engine>, kHierLevels> engines_;
    std::array<std::unique_ptr<PosMap>, kHierLevels> posMaps_;
};

/** Prefetched lines the LLC residency filter tracks (PrORAM, Palermo). */
constexpr std::size_t kLlcResidentLines = std::size_t{1} << 15;

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
    using Lru = std::pmr::list<BlockId>;
    using Index = FlatMap<BlockId, Lru::iterator>;

    std::size_t capacity_;
    /** Backs lru_; declared before it. */
    std::pmr::unsynchronized_pool_resource pool_;
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
    /**
     * LevelPlans a shorter plan (an LLC hit, a PrORAM dummy, an IR-ORAM
     * bypass) did not need, kept with their op buffers for the next
     * longer plan. New LevelPlans are made only when this is empty, so
     * it never outgrows the largest number ever live at once.
     */
    std::vector<LevelPlan> spareLevels_;
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
