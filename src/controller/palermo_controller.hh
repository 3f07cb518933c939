/**
 * @file
 * PalermoController: the 3xN PE-mesh ORAM controller (paper §V).
 *
 * Each column serves one ORAM request; each row serves one hierarchy
 * level (Data, PosMap1, PosMap2). A PE's finite state machine walks
 * CP -> LM -> ER -> RP -> (EP) -> Finalize with two dependency types:
 *
 *  - North/south (parent/child): a PE's CP resolves when the child
 *    level's ReadPath returns the leaf (PosMap2 reads the on-chip
 *    PosMap3 instead).
 *  - West/east (sibling): a PE may mutate its tree (the critical
 *    section: leaf consumption, remap, pre-check reshuffles) only after
 *    the previous request's PE on the same tree has *issued* its ER
 *    writes (EP writes for every A-th access). Issuing — not commit —
 *    clears the dependency; the DRAM write queue's read forwarding keeps
 *    the tree view consistent.
 *
 * All ReadPaths overlap freely, which is where the bandwidth comes from.
 * Requests retire in CommitHead order. The software-only variant
 * (Palermo-SW, paper Fig. 10) coarsens both dependencies: it is this
 * controller with PalermoControllerConfig::swMode set.
 *
 * Ready mask. Most PEs spend most cycles parked on an event: a DRAM
 * read, the child level's leaf, or the sibling token. Each level keeps
 * a 64-bit mask with one bit per column (so at most 64 columns), and
 * tick() steps only the PEs whose bit is set, in the same order as a
 * full sweep (levels deepest first, columns ascending). It re-reads the
 * mask after every step, so a PE that an earlier step wakes still steps
 * in the same cycle. A step that leaves its PE parked clears the bit:
 * Idle or Finalized, WaitSibling, a Wait* stage with reads
 * outstanding, or WaitLeaf on its child (PosMap2's WaitLeaf counts
 * down the PosMap3 lookup, so it stays set). Every event that can
 * unpark a PE sets its bit again:
 *
 *  - push(): the column's three PEs;
 *  - onCompletion(): the PE whose last outstanding read returned;
 *  - rpDone or finalized at a level: the PE one level up;
 *  - clearSibling(level, gid): the PE of the column gid + 1 occupies;
 *  - Palermo-SW's global CommitHead moving: every PE.
 *
 * Stepping a PE that cannot move changes nothing, so skipping it keeps
 * every simulated cycle. With every bit clear the whole tick is
 * accounting: no column waits for its start tick (push() wakes its
 * PEs), and the previous tick's tryRetire() already retired every
 * column it could. So an empty mask is the controller's parked state.
 */

#ifndef PALERMO_CONTROLLER_PALERMO_CONTROLLER_HH
#define PALERMO_CONTROLLER_PALERMO_CONTROLLER_HH

#include <array>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "controller/controller.hh"
#include "oram/palermo.hh"
#include "oram/plan.hh"

namespace palermo {

/** Timing knobs of the PE mesh. */
struct PalermoControllerConfig
{
    unsigned columns = 8;        ///< PE columns (Table III: 3x8).
    unsigned issuePerPe = 4;     ///< DRAM enqueues per PE per cycle.
    unsigned posmap3Latency = 4; ///< On-chip PosMap3 lookup cycles.
    unsigned decryptLatency = 40; ///< RP data to response cycles.
    bool swMode = false;         ///< Palermo-SW coarse synchronization.
};

/** The Palermo protocol-hardware co-designed controller. */
class PalermoController : public Controller
{
  public:
    PalermoController(std::unique_ptr<PalermoOram> protocol,
                      const PalermoControllerConfig &config);

    bool canAccept() const override;
    void push(BlockId pa, bool write, std::uint64_t value,
              bool dummy) override;
    void tick(DramSystem &dram) override;
    /** Parked: every ready-mask bit is clear (PosMap2's lookup timer
     * keeps its bit set). */
    Tick nextEventAt(Tick now) const override;
    void tickSpan(std::uint64_t cycles, std::uint64_t busy) override;
    void onCompletion(std::uint64_t tag) override;
    bool idle() const override;
    const Stash &stashOf(unsigned level) const override;
    Stash &stashOf(unsigned level) override;

    PalermoOram &protocol() { return *protocol_; }
    const PalermoControllerConfig &config() const { return config_; }

    /** Peak concurrently-active columns observed (tests). */
    unsigned maxActiveColumns() const { return maxActiveColumns_; }

  private:
    /** PE FSM states, in protocol order. */
    enum class PeStage
    {
        Idle,
        WaitLeaf,     ///< CP: waiting for child's RP response / PosMap3.
        WaitSibling,  ///< Waiting for the west tree-write token.
        IssueLm,
        WaitLm,
        IssueErRead,
        WaitErRead,
        IssueErWrite,
        IssueRp,
        WaitRp,
        IssueEpRead,
        WaitEpRead,
        IssueEpWrite,
        Finalized,
    };

    struct PeState
    {
        PeStage stage = PeStage::Idle;
        LevelPlan plan;
        std::size_t opIdx = 0;
        std::uint64_t outstanding = 0;
        Tick leafReadyAt = kTickNever; ///< PosMap3 latency model.
        bool cleared = false;          ///< Sibling token passed east.
    };

    struct ColumnCtx
    {
        bool busy = false;
        std::uint64_t gid = 0;
        BlockId pa = 0;
        std::array<BlockId, kHierLevels> ids{};
        bool write = false;
        std::uint64_t value = 0;
        bool dummy = false;
        Tick startTick = 0;
        Tick responseTick = kTickNever;
        std::uint64_t readValue = 0;
        std::array<bool, kHierLevels> rpDone{};
        std::array<bool, kHierLevels> finalized{};
    };

    /** Current phase the PE is issuing, or nullptr. */
    Phase *issuingPhase(PeState &pe);

    void stepPe(unsigned col, unsigned level, DramSystem &dram);
    /** True if PE (col, level) waits on an event that sets its ready
     * bit; false if a later cycle alone can let it move. */
    bool parked(unsigned col, unsigned level) const;
    void wake(unsigned col, unsigned level)
    {
        ready_[level] |= std::uint64_t{1} << col;
    }
    /** Wake the PE one level up, whose WaitLeaf waits on `level`. */
    void wakeParent(unsigned col, unsigned level)
    {
        if (level > 0)
            wake(col, level - 1);
    }
    void issueOps(unsigned col, unsigned level, PeState &pe,
                  DramSystem &dram);
    void clearSibling(unsigned level, std::uint64_t gid);
    /** Palermo-SW: request `gid` releases the global CommitHead. */
    void releaseGlobal(std::uint64_t gid);
    void tryRetire(Tick now);

    std::unique_ptr<PalermoOram> protocol_;
    PalermoControllerConfig config_;

    std::vector<std::array<PeState, kHierLevels>> pes_; ///< [col][level]
    std::vector<ColumnCtx> cols_;
    /** Per level, bit `col` set unless PE (col, level) is parked (see
     * the file comment). */
    std::array<std::uint64_t, kHierLevels> ready_{};

    std::uint64_t nextGid_ = 0;
    std::uint64_t commitHead_ = 0;
    /** Highest gid whose tree-write phase has been issued, per level. */
    std::array<std::uint64_t, kHierLevels> clearedThrough_;
    /**
     * Software mode: Algorithm 2's global CommitHead spin. A request
     * enters its (whole-hierarchy) critical region only after the
     * previous request has issued everything but its overlappable
     * ReadPaths — software cannot split issue from completion per tree.
     */
    std::uint64_t swGlobalCleared_ = 0;

    /** Flat maps: probed per DRAM completion (tags) and per miss
     * (MSHR merge); count/lookup only, never iterated. */
    using TagMap = FlatMap<std::uint64_t, std::uint32_t>;
    using BlockMap = FlatMap<BlockId, unsigned>;

    std::uint64_t nextTag_ = 1;
    /** Read tag -> (col, level). */
    TagMap tagMap_;

    /**
     * MSHR-style merge under prefetch: misses to a widened data block
     * that already has an in-flight ORAM request coalesce into it (the
     * fill returns all of the block's lines to the LLC), so no second
     * request is issued. Maps data-tree block -> in-flight count.
     */
    BlockMap inFlightBlocks_;

    unsigned activeColumns_ = 0;
    unsigned maxActiveColumns_ = 0;
};

} // namespace palermo

#endif // PALERMO_CONTROLLER_PALERMO_CONTROLLER_HH
