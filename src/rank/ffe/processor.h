// The FFE multicore soft processor (§4.5).
//
// "We developed a custom multicore processor with massive multithreading
// and long-latency operations in mind ... highly area-efficient,
// allowing us to instantiate 60 cores on a single D5 FPGA."
// Key microarchitectural properties modelled:
//   * each core runs 4 simultaneous threads arbitrating for functional
//     units cycle-by-cycle; all units are fully pipelined;
//   * threads are statically prioritized (the assembler's longest-first
//     slot assignment, implemented in AssignThreads);
//   * cores are clustered in groups of 6 sharing one complex block
//     (ln, fpdiv, exp, float-to-int) with fair round-robin arbitration;
//   * the complex block also houses the double-buffered Feature Storage
//     Tile (FST).
//
// Functional execution runs the loaded partition's level schedule
// (rank/ffe/partition.h: the same float operations on the same values
// as direct AST evaluation). The timing model computes the per-document
// stage makespan from three binding constraints: per-core issue
// bandwidth (1 instr/cycle shared by its 4 thread slots), per-thread
// serial dependency latency, and per-cluster complex-block throughput.

#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "rank/feature_space.h"
#include "rank/ffe/compiler.h"
#include "rank/ffe/partition.h"

namespace catapult::rank::ffe {

class FfeProcessor {
  public:
    struct Config {
        int core_count = 60;          ///< §4.5.
        int threads_per_core = 4;     ///< §4.5.
        int cores_per_cluster = 6;    ///< §4.5.
        Frequency clock = Frequency::MHz(125.0);  ///< Table 1 (FFE0/1).
        OpLatencies latencies;
        /** Complex block initiation interval (ops/cycle = 1/II). */
        int complex_initiation_interval = 1;
        /** Fixed overhead: FST swap, pipeline fill/drain. */
        std::int64_t overhead_cycles = 120;
    };

    FfeProcessor() : FfeProcessor(Config()) {}
    explicit FfeProcessor(Config config);

    /**
     * Load a model partition and derive its static thread assignment.
     * Mirrors a Model Reload (§4.3): instruction memories rewritten.
     * The partition is referenced, not copied, and must outlive this
     * processor (or its next Load).
     */
    void Load(const Partition& partition);

    /**
     * Functional execution: run every loaded program against `store`,
     * writing each result to its output FST slot. Uses this processor's
     * own register scratch, so processors sharing one partition may run
     * on different threads.
     */
    void ExecuteAll(FeatureStore& store);

    /**
     * Timing: stage cycles to process one document with the loaded
     * programs (max of issue, dependency and complex-block bounds over
     * all cores/clusters, plus fixed overhead).
     */
    std::int64_t DocumentCycles() const;

    /** DocumentCycles converted through the core clock. */
    Time DocumentServiceTime() const;

    /** Breakdown of the three binding constraints (for ablation). */
    struct TimingBreakdown {
        std::int64_t max_core_issue_cycles = 0;
        std::int64_t max_thread_serial_cycles = 0;
        std::int64_t max_cluster_complex_cycles = 0;
    };
    TimingBreakdown Breakdown() const { return breakdown_; }

    /** Total instructions across loaded programs. */
    std::int64_t TotalInstructions() const;

    /** Instruction memory footprint (drives Model Reload cost, §4.3). */
    Bytes InstructionMemoryBytes() const;

    const Config& config() const { return config_; }

  private:
    void RecomputeTiming();

    Config config_;
    const Partition* partition_ = nullptr;
    std::vector<float> registers_;  ///< Sized on first ExecuteAll.
    ThreadAssignment assignment_;
    TimingBreakdown breakdown_;
    std::int64_t document_cycles_ = 0;
};

}  // namespace catapult::rank::ffe
