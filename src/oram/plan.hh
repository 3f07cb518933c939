/**
 * @file
 * Access plans: the bridge between functional protocol execution and the
 * timing controllers.
 *
 * A protocol engine applies an access's functional effects eagerly and
 * emits a LevelPlan — the ordered DRAM operation phases that access
 * performs on one ORAM tree. Timing controllers replay plans under their
 * own overlap rules: the serial controller plays phases strictly in
 * order; the Palermo PE mesh overlaps phases within and across requests
 * subject to the protocol's minimal dependencies.
 */

#ifndef PALERMO_ORAM_PLAN_HH
#define PALERMO_ORAM_PLAN_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "oram/layout.hh"

namespace palermo {

/** Protocol step a phase belongs to (paper Fig. 5/6 notation). */
enum class PhaseKind
{
    LoadMeta,     ///< LM: fetch path node metadata.
    ResetRead,    ///< ER fetch: read Z-padded offsets of resetting nodes.
    ResetWrite,   ///< ER write-back: rewrite reset buckets (posted).
    ReadPath,     ///< RP: one slot per path node (Ring) / whole buckets
                  ///<     (Path); includes posted metadata updates.
    EvictRead,    ///< EP fetch: pull eviction-path buckets.
    EvictWrite,   ///< EP write-back: rewrite eviction path (posted).
};

/** One phase: a batch of DRAM line operations issued together. */
struct Phase
{
    PhaseKind kind;
    std::vector<MemOp> ops;

    std::size_t readCount() const;
    std::size_t writeCount() const;
};

/**
 * Fixed-capacity phase sequence that recycles its op buffers.
 *
 * The longest protocol sequence is RingORAM with an eviction: LM, ER
 * fetch, ER write-back, RP, EP fetch, EP write-back — six phases. A
 * plain vector<Phase> reallocates the phase headers and every ops
 * vector on each access; this container keeps six permanent slots and
 * clear() only rewinds the logical size, so a recycled plan stops
 * hitting the heap once its buffers have grown to the working set.
 */
class PhaseList
{
  public:
    static constexpr std::size_t kMaxPhases = 6;

    std::size_t size() const { return size_; }
    /** Rewind to empty; slot op buffers keep their capacity. */
    void clear() { size_ = 0; }

    Phase &operator[](std::size_t i) { return slots_[i]; }
    const Phase &operator[](std::size_t i) const { return slots_[i]; }

    Phase *begin() { return slots_.data(); }
    Phase *end() { return slots_.data() + size_; }
    const Phase *begin() const { return slots_.data(); }
    const Phase *end() const { return slots_.data() + size_; }

    /** Open the next phase, reusing the slot's ops buffer. */
    Phase &emplaceBack(PhaseKind kind)
    {
        palermo_assert(size_ < kMaxPhases, "phase sequence overflow");
        Phase &slot = slots_[size_++];
        slot.kind = kind;
        slot.ops.clear();
        return slot;
    }

    /** Append a pre-built phase (test convenience). */
    void push_back(Phase phase)
    {
        emplaceBack(phase.kind).ops = std::move(phase.ops);
    }

  private:
    std::array<Phase, kMaxPhases> slots_{};
    std::size_t size_ = 0;
};

/** All phases one access performs on a single ORAM tree. */
struct LevelPlan
{
    unsigned level = 0;       ///< Hierarchy level: 0=Data, 1=Pos1, 2=Pos2.
    BlockId block = kInvalid; ///< Block accessed within this tree.
    Leaf oldLeaf = 0;         ///< Path that was read.
    Leaf newLeaf = 0;         ///< Fresh uniform remap target.
    bool servedFromStash = false; ///< Target was pending in the stash.
    bool freshBlock = false;  ///< First-ever touch of this block.
    bool hasEvict = false;    ///< EvictPath scheduled on this access.
    PhaseList phases;         ///< Protocol execution order.

    /** Reset scalars and rewind phases, keeping op-buffer capacity. */
    void reset()
    {
        level = 0;
        block = kInvalid;
        oldLeaf = 0;
        newLeaf = 0;
        servedFromStash = false;
        freshBlock = false;
        hasEvict = false;
        phases.clear();
    }

    std::size_t readOps() const;
    std::size_t writeOps() const;
    const Phase *find(PhaseKind kind) const;
};

/** A full hierarchical ORAM request (one converted LLC miss). */
struct RequestPlan
{
    BlockId pa = kInvalid;    ///< Protected-space block id.
    bool write = false;
    bool dummy = false;       ///< Background eviction, serves no miss.
    bool llcHit = false;      ///< Filtered by prefetch; no ORAM work.
    std::uint64_t value = 0;  ///< Payload returned for reads.
    /** Per-tree plans in protocol execution order (deepest PosMap first). */
    std::vector<LevelPlan> levels;

    std::size_t readOps() const;
    std::size_t writeOps() const;
};

} // namespace palermo

#endif // PALERMO_ORAM_PLAN_HH
