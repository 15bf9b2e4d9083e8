// Load generation for the ring- and system-level experiments (§5).
//
// Two injection disciplines drive the evaluation figures:
//  * closed-loop: N CPU threads per node, each keeping exactly one
//    document outstanding (Figures 8-13 sweep thread and node counts);
//  * open-loop: Poisson arrivals at a configured rate per server,
//    documents queue host-side for free slots (Figures 14-15 sweep
//    normalized injection rates against the software baseline).
//
// Pool- and federation-level load goes through one seam, `Target`:
// ClientLoop (closed loop) and ArrivalLoop (open loop) inject into
// whatever `InjectInto` wraps. The ring-level figure harnesses keep
// their own per-thread slot discipline.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "rank/document.h"
#include "rank/document_generator.h"
#include "rank/software_ranker.h"
#include "service/ranking_service.h"
#include "sim/simulator.h"
#include "sim/simulator_group.h"

namespace catapult::service {

/** One ArrivalLoop phase (see ArrivalLoop::Config::phase_offsets). */
struct Phase {
    Time start = 0;  ///< Offset from load start.
    Time span = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t completed_in_slo = 0;
    std::uint64_t timeouts = 0;
    SampleStat latency_us;

    /** Completions per second of wall-phase time. */
    double Qps() const {
        const double s = ToSeconds(span);
        return s > 0 ? static_cast<double>(completed) / s : 0.0;
    }
    /** Completions inside the SLO per second of wall-phase time. */
    double SloQps() const {
        const double s = ToSeconds(span);
        return s > 0 ? static_cast<double>(completed_in_slo) / s : 0.0;
    }
};

/** Latency/throughput measurements from one run. */
struct LoadResult {
    SampleStat latency_us;
    std::uint64_t completed = 0;
    std::uint64_t timeouts = 0;
    /** Arrivals the target took / refused up front (open loop only). */
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    Time elapsed = 0;
    /** ArrivalLoop only: one entry per phase, summing to the totals. */
    std::vector<Phase> phases;

    double ThroughputPerSecond() const {
        const double s = ToSeconds(elapsed);
        return s > 0 ? static_cast<double>(completed) / s : 0.0;
    }
};

using Completion = std::function<void(const ScoreResult&)>;

/**
 * Where pool- and federation-level load goes: inject `request` from
 * driver thread `thread`, answer now with a SendStatus, and call the
 * completion later iff the send was accepted.
 */
using Target = std::function<host::SendStatus(
    int thread, const rank::CompressedRequest&, Completion)>;

/** A Target over a ServicePool or a FederatedDispatcher. */
template <typename T>
Target InjectInto(T* target) {
    return [target](int thread, const rank::CompressedRequest& request,
                    Completion done) {
        return target->Inject(thread, request, std::move(done));
    };
}

/**
 * Closed-loop injector: `threads` per injecting node, each thread owns
 * one slot and keeps one document outstanding.
 */
class ClosedLoopInjector {
  public:
    struct Config {
        std::vector<int> injecting_ring_indices = {0};
        int threads_per_node = 1;
        int documents_per_thread = 200;
    };

    ClosedLoopInjector(RankingService* service, Config config);

    /** Run to completion; returns the measurements. */
    LoadResult Run();

  private:
    void SendNext(int ring_index, int thread, int remaining);

    RankingService* service_;
    Config config_;
    rank::DocumentGenerator generator_;
    LoadResult result_;
    Time started_ = 0;
    Time last_completion_ = 0;
};

/**
 * Closed loop against a Target: `concurrency` logical clients, each
 * keeping one document outstanding. The target shards every send (a
 * pool across rings, a federation across pods), so the same offered
 * load measures 1 vs N ring/pod capacity (bench_pool_scaling,
 * bench_federation). A refused send is retried after kRetryDelay; a
 * client refused kMaxRetries times in a row gives up and counts one
 * timeout, so a target that never recovers cannot hang Run().
 */
class ClientLoop {
  public:
    struct Config {
        /** Outstanding documents across the whole target. */
        int concurrency = 32;
        /** Total documents to complete. */
        int documents = 2'000;
    };

    static constexpr Time kRetryDelay = Microseconds(100);
    static constexpr int kMaxRetries = 1'000;

    ClientLoop(sim::Simulator* simulator, Target target, Config config);

    /** Run to completion; returns the measurements. */
    LoadResult Run();

  private:
    sim::Simulator* simulator_;
    Target target_;
    Config config_;
    rank::DocumentGenerator generator_;
};

/**
 * Open loop against a Target: arrivals are independent of completions,
 * the production traffic shape. There is no client-side queue or
 * retry: the target answers every arrival immediately, and a refused
 * arrival is *rejected*, not parked — admission control (bounded
 * queues, fast feedback to the traffic source) rather than unbounded
 * host-side buffering.
 *
 * Constructed with an Rng, arrivals form a Poisson chain. Without one
 * they follow a fixed beat pre-scheduled at load start + beat * i, so
 * offered load is identical run to run: the harness for staged-failure
 * scenarios, where phase boundaries at fault injection, shed,
 * re-admission and settle points let a bench compare steady-state QPS
 * across an incident numerically.
 */
class ArrivalLoop {
  public:
    struct Config {
        /** Mean arrivals per second across the whole target. */
        double rate_qps = 20'000.0;
        Time duration = Milliseconds(100);
        /**
         * Ascending offsets from load start; k boundaries make k+1
         * phases. Arrivals/accepts/rejects are attributed to the phase
         * of the arrival, completions/timeouts to the phase of the
         * completion (late completions land in the final phase).
         */
        std::vector<Time> phase_offsets;
        /**
         * Latency SLO for goodput accounting (0 = off): a completion
         * slower than this still counts in `completed` but not in
         * `completed_in_slo`. This is §5's "throughput at a latency
         * target" lens — in a lossless retrying federation a query
         * caught on a dying pod is rarely *lost*, it is *late*, and
         * goodput is where that damage shows up numerically.
         */
        Time slo = 0;
    };

    /** Fixed-beat arrivals. */
    ArrivalLoop(sim::Simulator* simulator, Target target, Config config);
    /** Poisson arrivals drawn from `rng`. */
    ArrivalLoop(sim::Simulator* simulator, Target target, Rng rng,
                Config config);

    /**
     * Sharded federation: `simulator` must be the group's coordinator
     * shard and Run() drives the whole group (epoch barriers included)
     * instead of the lone simulator.
     */
    void set_group(sim::SimulatorGroup* group) { group_ = group; }

    /** Run to completion (arrivals + drain); returns the measurements. */
    LoadResult Run();

  private:
    std::size_t PhaseOf(Time now) const;
    void InjectArrival();

    sim::Simulator* simulator_;
    sim::SimulatorGroup* group_ = nullptr;
    Target target_;
    std::optional<Rng> rng_;
    Config config_;
    rank::DocumentGenerator generator_;
    LoadResult result_;
    Time load_start_ = 0;
    int arrival_seq_ = 0;
};

/**
 * Open-loop injector: Poisson arrivals per injecting server. Arrivals
 * beyond the available slots queue host-side (the production software
 * stack in front of the driver), and each document first pays the
 * host-side software portion of ranking on a CPU pool (§4: SSD lookup,
 * hit-vector computation, software features).
 */
class OpenLoopInjector {
  public:
    struct Config {
        std::vector<int> injecting_ring_indices = {0, 1, 2, 3, 4, 5, 6, 7};
        /** Mean arrivals per second per injecting server. */
        double rate_per_server = 5'000.0;
        Time duration = Milliseconds(200);
        int threads_per_node = 32;
    };

    OpenLoopInjector(RankingService* service, Rng rng, Config config);

    LoadResult Run();

  private:
    struct PendingDoc {
        rank::CompressedRequest request;
        Time arrived = 0;
    };

    struct NodeState {
        std::deque<PendingDoc> backlog;
        std::vector<bool> slot_busy;
        std::unique_ptr<rank::CpuPool> cpu;
    };

    void TryDispatch(int node_index);
    void InjectPrepared(int node_index, PendingDoc doc, int thread);

    RankingService* service_;
    Rng rng_;
    Config config_;
    rank::DocumentGenerator generator_;
    std::vector<NodeState> nodes_;
    LoadResult result_;
    Time deadline_ = 0;
};

/**
 * The software-only fleet driven at the same injection rates: one
 * SoftwareRankServer per injecting node (Figures 14-15 baseline).
 */
class SoftwareLoadRunner {
  public:
    struct Config {
        int servers = 8;
        double rate_per_server = 5'000.0;
        Time duration = Milliseconds(200);
    };

    SoftwareLoadRunner(sim::Simulator* simulator, const rank::Model* model,
                       Rng rng, Config config);

    LoadResult Run();

  private:
    sim::Simulator* simulator_;
    const rank::Model* model_;
    Rng rng_;
    Config config_;
    rank::DocumentGenerator generator_;
    std::vector<std::unique_ptr<rank::SoftwareRankServer>> servers_;
    LoadResult result_;
    Time deadline_ = 0;
};

}  // namespace catapult::service
