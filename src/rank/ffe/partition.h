// One FFE chip's model partition, lowered once for the host (§4.5).
//
// The compiled programs stay as the hardware sees them (they drive the
// thread assignment, the timing model and the Model Reload size). For
// functional execution the partition is also lowered into a level
// schedule over one flat register file:
//   * every program's registers are renumbered into the shared file;
//     constants are preloaded into the register image and never run;
//   * feature loads, arithmetic ops and each program's output store
//     become scheduled ops at their dependency level: one past the
//     latest op they depend on, counting register operands and FST
//     slots (a load follows the last store to its slot, so FFE0
//     metafeature producers that read an earlier producer's output see
//     its value; a store follows the last store to its slot and, since
//     loads run before stores within a level, every earlier load);
//   * each (FST slot, stored version) is loaded once: a load of a slot
//     already loaded since the slot's last store reuses that load's
//     register and is not scheduled. This is a host-side saving only;
//     the programs keep every load, so the chip's instruction counts
//     and timing are unchanged;
//   * ops are grouped by (level, opcode) with a counting sort, and each
//     group runs as one branch-free loop;
//   * only live programs are lowered. Model::Generate marks a program
//     live when its output can reach a slot the scoring trees read
//     (MarkLivePrograms, walking FFE1 and then FFE0 backward from the
//     compression operands); a dead program's value is never read, so
//     it is not scheduled. programs(), the instruction count and the
//     chip timing derived from them still cover every program.
// Every op computes the same scalar float function of the same operand
// values as direct AST evaluation, so results are bit-identical on
// every slot a live program writes.
//
// A Partition is immutable after construction and is shared by every
// processor that loads the model; the register scratch belongs to the
// caller.

#pragma once

#include <cstdint>
#include <vector>

#include "rank/feature_space.h"
#include "rank/ffe/compiler.h"

namespace catapult::rank::ffe {

class Partition {
  public:
    Partition() = default;
    /**
     * Lower `programs`. `live[p]` says whether program p is scheduled;
     * an empty mask schedules every program.
     */
    explicit Partition(std::vector<Program> programs,
                       const std::vector<bool>& live = {});

    /** The compiled programs, in the order the chip runs them. */
    const std::vector<Program>& programs() const { return programs_; }

    std::int64_t TotalInstructions() const { return total_instructions_; }

    /**
     * Initial register file: constants preloaded, every other register
     * zero. Execution writes each non-constant register before reading
     * it, so one scratch copy serves any number of documents.
     */
    const std::vector<float>& register_image() const {
        return register_image_;
    }

    /** Programs the schedule runs (the live ones). */
    std::size_t live_programs() const { return live_programs_; }

    /**
     * Run every live program against `store`, writing each result to
     * its output FST slot. `registers` must hold a copy of
     * register_image().
     */
    void Execute(FeatureStore& store, std::vector<float>& registers) const;

    /** Count of (level, opcode) groups (schedule shape, for tests). */
    std::size_t batch_count() const { return batches_.size(); }

    /** Feature loads the schedule runs: one per (slot, stored version). */
    std::size_t scheduled_loads() const;

  private:
    /**
     * A run of same-opcode ops at one dependency level. Batches consume
     * operands_ in order.
     */
    struct Batch {
        std::uint8_t kind = 0;   ///< OpCode value, or the output store.
        std::uint32_t count = 0;
        std::uint32_t dst = 0;   ///< First destination register.
    };

    std::vector<Program> programs_;
    std::int64_t total_instructions_ = 0;
    std::size_t live_programs_ = 0;
    std::vector<float> register_image_;
    std::vector<Batch> batches_;
    /**
     * Operands, packed per op: a feature id (load), one to three
     * source registers (arithmetic), or source register + FST slot
     * (store). Destinations are implicit: each batch writes the
     * consecutive registers starting at its `dst`.
     */
    std::vector<std::uint32_t> operands_;
};

/**
 * Backward liveness over one chip's programs, in reverse program order:
 * a program is live iff its output slot is in `needed` (indexed by FST
 * slot) when the walk reaches it. A live program removes its output
 * slot, since an earlier writer of that slot is overwritten before any
 * later read, and then adds every slot it loads. On return `needed`
 * holds the slots the programs read before writing them, which seeds
 * the walk over the upstream chip.
 */
std::vector<bool> MarkLivePrograms(const std::vector<Program>& programs,
                                   std::vector<bool>& needed);

}  // namespace catapult::rank::ffe
