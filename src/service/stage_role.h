// Stage roles: the application logic loaded into each ring FPGA.
//
// Each role is a single-document-at-a-time server (inputs are
// double-buffered in hardware, §4.4, which the one-deep overlap of
// queue + service models). The head role additionally runs the Queue
// Manager with its per-model DRAM queues and issues Model Reload
// commands (§4.3). The final scoring role emits the response packet
// back to the injector.
//
// Roles carry timing only: each holds a document for its stage's
// Model::StageServiceTime and forwards it. The score does not depend
// on where the stages run (§4: "identical to software"), so
// RankingService::OnResponse computes it in one call when the response
// lands.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "rank/model.h"
#include "shell/shell.h"
#include "sim/simulator.h"

namespace catapult::service {

class RankingService;

class StageRole : public shell::Role {
  public:
    StageRole(RankingService* service, sim::Simulator* simulator,
              shell::Shell* shell, rank::PipelineStage stage, int ring_index);

    // shell::Role interface.
    void OnPacket(shell::PacketPtr packet) override;
    std::string RoleName() const override;
    bool Healthy() const override { return !hung_; }

    rank::PipelineStage stage() const { return stage_; }
    int ring_index() const { return ring_index_; }

    /** Failure injection: stage logic hangs on an untested input (§3.6). */
    void Hang() { hung_ = true; }
    void Unhang() { hung_ = false; }

    struct Counters {
        std::uint64_t processed = 0;
        std::uint64_t forwarded = 0;
        std::uint64_t reloads = 0;
        std::uint64_t dropped_unknown = 0;
    };
    const Counters& counters() const { return counters_; }

    std::size_t queue_depth() const { return queue_.size(); }

  private:
    void Pump();
    void StartService(shell::PacketPtr packet);
    void FinishService(shell::PacketPtr packet);
    void ForwardToNext(shell::PacketPtr packet);
    void EmitResponse(shell::PacketPtr request_packet);
    /** Head-of-ring only: run the Queue Manager dispatch loop. */
    void PumpHead();

    RankingService* service_;
    sim::Simulator* simulator_;
    shell::Shell* shell_;
    rank::PipelineStage stage_;
    int ring_index_;
    std::deque<shell::PacketPtr> queue_;
    /** Head stage: QM entries keyed by trace id -> packet. */
    std::unordered_map<std::uint64_t, shell::PacketPtr> head_pending_;
    bool busy_ = false;
    bool hung_ = false;
    /**
     * Liveness guard for simulator callbacks: a ring redeploy
     * (RankingService::BuildRoles) destroys and rebuilds every role
     * while documents may still be mid-service, so scheduled
     * completions capture a weak_ptr to this token and no-op once the
     * role is gone instead of dereferencing a dangling `this`.
     */
    std::shared_ptr<char> alive_ = std::make_shared<char>(0);
    Counters counters_;
};

}  // namespace catapult::service
