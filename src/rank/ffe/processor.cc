#include "rank/ffe/processor.h"

#include <algorithm>
#include <cassert>

namespace catapult::rank::ffe {

FfeProcessor::FfeProcessor(Config config) : config_(config) {
    assert(config_.core_count > 0);
    assert(config_.threads_per_core > 0);
    assert(config_.cores_per_cluster > 0);
}

void FfeProcessor::Load(const Partition& partition) {
    partition_ = &partition;
    registers_.clear();
    assignment_ = AssignThreads(partition.programs(), config_.core_count,
                                config_.threads_per_core);
    RecomputeTiming();
}

void FfeProcessor::ExecuteAll(FeatureStore& store) {
    assert(partition_ != nullptr);
    if (registers_.empty()) registers_ = partition_->register_image();
    partition_->Execute(store, registers_);
}

void FfeProcessor::RecomputeTiming() {
    breakdown_ = TimingBreakdown{};
    const int cores = config_.core_count;
    const int clusters =
        (cores + config_.cores_per_cluster - 1) / config_.cores_per_cluster;
    std::vector<std::int64_t> cluster_complex(
        static_cast<std::size_t>(clusters), 0);

    for (int core = 0; core < cores; ++core) {
        std::int64_t issue = 0;
        const auto& slots = assignment_.thread_queues[static_cast<std::size_t>(core)];
        for (const auto& queue : slots) {
            std::int64_t serial = 0;
            for (int index : queue) {
                const Program& p =
                    partition_->programs()[static_cast<std::size_t>(index)];
                issue += p.InstructionCount();
                serial += p.serial_latency;
                cluster_complex[static_cast<std::size_t>(
                    core / config_.cores_per_cluster)] +=
                    static_cast<std::int64_t>(p.complex_ops) *
                    config_.complex_initiation_interval;
            }
            breakdown_.max_thread_serial_cycles =
                std::max(breakdown_.max_thread_serial_cycles, serial);
        }
        breakdown_.max_core_issue_cycles =
            std::max(breakdown_.max_core_issue_cycles, issue);
    }
    for (std::int64_t c : cluster_complex) {
        breakdown_.max_cluster_complex_cycles =
            std::max(breakdown_.max_cluster_complex_cycles, c);
    }
    document_cycles_ =
        std::max({breakdown_.max_core_issue_cycles,
                  breakdown_.max_thread_serial_cycles,
                  breakdown_.max_cluster_complex_cycles}) +
        config_.overhead_cycles;
}

std::int64_t FfeProcessor::DocumentCycles() const { return document_cycles_; }

Time FfeProcessor::DocumentServiceTime() const {
    return config_.clock.Cycles(document_cycles_);
}

std::int64_t FfeProcessor::TotalInstructions() const {
    return partition_ == nullptr ? 0 : partition_->TotalInstructions();
}

Bytes FfeProcessor::InstructionMemoryBytes() const {
    // 8 bytes per instruction word in the M20K instruction memories.
    return TotalInstructions() * 8;
}

}  // namespace catapult::rank::ffe
