// Federation scale-out and whole-pod blackout survival.
//
// The paper's bed is many 48-node pods behind one ranking service
// (§2); this harness measures the FederatedDispatcher's two core
// claims at that scale:
//
//  1. Scale-out: the same offered load against 1, 2 and 3 pods —
//     throughput must rise ~linearly (3 pods >= 2.5x one pod), since
//     pods share nothing but the dispatcher.
//  2. Availability: a 3-pod federation serving a paced load loses an
//     entire pod mid-run (power-domain blackout: every host dead,
//     every shell RX-halted). The dispatcher must retain >= 80% of the
//     steady-state QPS across the incident and lose zero accepted
//     queries — in-flight queries caught on the dying pod re-inject
//     onto the survivors.
//
// The harness exits 1 when either shape is violated, so bench/run_all
// (and CI's --compare gate) catches federation regressions.

#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "rank/document_generator.h"
#include "service/federation_testbed.h"
#include "service/load_generator.h"

using namespace catapult;

namespace {

constexpr int kRingsPerPod = 2;

service::FederationTestbed::Config FederationConfig(int pods) {
    service::FederationTestbed::Config config;
    config.pod_count = pods;
    config.pod.ring_count = kRingsPerPod;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    return config;
}

// --- Part 1: scale-out ------------------------------------------------

double MeasureThroughput(int pods) {
    service::FederationTestbed bed(FederationConfig(pods));
    if (!bed.DeployAndSettle()) return 0.0;
    service::FederatedClosedLoopInjector::Config load;
    // Saturates well past 3 pods x 2 rings (single-ring saturation is
    // ~12 outstanding, Fig. 9).
    load.concurrency = 96;
    load.documents = 2'000;
    service::FederatedClosedLoopInjector injector(&bed.dispatcher(),
                                                  &bed.simulator(), load);
    const service::LoadResult result = injector.Run();
    if (result.completed != static_cast<std::uint64_t>(load.documents)) {
        return 0.0;
    }
    bench::Row({bench::FmtInt(pods),
                bench::Fmt(result.ThroughputPerSecond(), 0),
                bench::Fmt(result.latency_us.mean(), 1),
                bench::Fmt(result.latency_us.P99(), 1),
                bench::FmtInt(static_cast<long long>(result.timeouts))});
    return result.ThroughputPerSecond();
}

// --- Part 2: whole-pod blackout ---------------------------------------

struct BlackoutResult {
    int accepted = 0;
    int ok = 0;
    int failed = 0;
    int completed_before_fault = 0;
    int completed_after_fault = 0;
    Time fault_time = 0;
    Time load_start = 0;
    Time load_end = 0;
    std::uint64_t failovers = 0;
    std::uint64_t lost = 0;
    int dead_nodes = 0;
    bool pod0_latched_out = false;
};

BlackoutResult RunBlackout() {
    auto config = FederationConfig(3);
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.host.hard_reboot_duration = Milliseconds(500);
    config.pod.host.crash_reboot_delay = Milliseconds(50);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
    service::FederationTestbed bed(config);
    BlackoutResult result;
    if (!bed.DeployAndSettle()) return result;

    // Paced load: one query per 40 us (25k QPS) for 160 ms — far below
    // the surviving 2 pods' capacity, so any retained-QPS shortfall is
    // the dispatcher's fault, not saturation.
    constexpr int kDocuments = 4'000;
    constexpr Time kInterarrival = Microseconds(40);
    result.load_start = bed.simulator().Now() + Milliseconds(1);
    result.fault_time = bed.simulator().Now() + Milliseconds(60);
    result.load_end =
        result.load_start + kInterarrival * (kDocuments - 1);
    bed.pod(0).failure_injector().SchedulePodBlackout(result.fault_time);

    rank::DocumentGenerator generator(97);
    auto inject_one = [&](int thread) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        const auto status = bed.dispatcher().Inject(
            thread, request, [&](const service::ScoreResult& r) {
                if (!r.ok) {
                    ++result.failed;
                    return;
                }
                ++result.ok;
                if (bed.simulator().Now() < result.fault_time) {
                    ++result.completed_before_fault;
                } else {
                    ++result.completed_after_fault;
                }
            });
        if (status == host::SendStatus::kOk) ++result.accepted;
    };
    // In-flight exercise: a burst 100 us before the blackout.
    for (int b = 0; b < 24; ++b) {
        bed.simulator().ScheduleAt(result.fault_time - Microseconds(100),
                                   [&, b] { inject_one(b); });
    }
    for (int i = 0; i < kDocuments; ++i) {
        bed.simulator().ScheduleAt(result.load_start + kInterarrival * i,
                                   [&, i] { inject_one(i % 32); });
    }
    bed.simulator().Run();

    result.failovers = bed.dispatcher().counters().failovers;
    result.lost = bed.dispatcher().counters().lost;
    result.dead_nodes = bed.dispatcher().pod_dead_nodes(0);
    result.pod0_latched_out = !bed.dispatcher().pod_eligible(0) &&
                              bed.dispatcher().pod_eligible(1) &&
                              bed.dispatcher().pod_eligible(2);
    return result;
}

// --- Part 3: parallel federation runtime ------------------------------

struct ShardedRun {
    bool deployed = false;
    double wall_ms = 0.0;
    service::LoadResult load;
    std::uint64_t completed = 0;
    std::uint64_t failovers = 0;
};

/**
 * The same sharded 4-pod federation under the same open-loop load,
 * lock-step on one thread vs parallel on worker threads. Simulated
 * metrics must match bit-for-bit (the conservative epoch protocol's
 * determinism contract); wall time is where the parallelism shows.
 */
ShardedRun RunShardedLoad(bool parallel) {
    auto config = FederationConfig(4);
    config.sharding.enabled = true;
    config.sharding.parallel = parallel;
    service::FederationTestbed bed(config);
    ShardedRun run;
    if (!bed.DeployAndSettle()) return run;
    service::FederatedOpenLoopInjector::Config load;
    load.rate_qps = 60'000.0;
    load.duration = Milliseconds(160);
    load.arrival_batch = 8;
    service::FederatedOpenLoopInjector injector(&bed.dispatcher(),
                                                &bed.simulator(), Rng(41),
                                                load);
    injector.set_group(bed.group());
    run.deployed = true;
    const bench::WallTimer timer;
    run.load = injector.Run();
    run.wall_ms = timer.Ms();
    run.completed = bed.dispatcher().counters().completed;
    run.failovers = bed.dispatcher().counters().failovers;
    return run;
}

}  // namespace

int main() {
    bench::Banner("Federation: cross-pod scale-out + whole-pod blackout",
                  "Putnam et al., ISCA 2014, §2 multi-pod deployment / §3.5 "
                  "failure handling");

    std::printf("\nScale-out: fixed offered load (96 outstanding, 2000 docs) "
                "vs pod count (%d rings/pod)\n", kRingsPerPod);
    bench::Row({"pods", "docs_per_s", "mean_us", "p99_us", "timeouts"});
    const double one_pod = MeasureThroughput(1);
    const double two_pod = MeasureThroughput(2);
    const double three_pod = MeasureThroughput(3);
    if (one_pod <= 0.0 || two_pod <= 0.0 || three_pod <= 0.0) {
        std::printf("FAIL: a federation run did not complete its load\n");
        return 1;
    }

    std::printf("\nBlackout: 3 pods, paced 25k QPS, pod 0 loses power "
                "mid-run\n");
    const BlackoutResult blackout = RunBlackout();
    if (blackout.accepted == 0) {
        std::printf("FAIL: blackout deployment or load failed\n");
        return 1;
    }
    // Steady-state QPS from the pre-fault phase; retained QPS across
    // the whole incident (fault to end of arrivals — pod 0 never
    // returns, so there is no post-recovery phase to exclude).
    const double steady_s =
        ToSeconds(blackout.fault_time - blackout.load_start);
    const double incident_s =
        ToSeconds(blackout.load_end - blackout.fault_time);
    const double steady_qps = blackout.completed_before_fault / steady_s;
    const double incident_qps = blackout.completed_after_fault / incident_s;
    const double retained = incident_qps / steady_qps;

    bench::Row({"metric", "value"});
    bench::Row({"steady_qps", bench::Fmt(steady_qps, 0)});
    bench::Row({"incident_qps", bench::Fmt(incident_qps, 0)});
    bench::Row({"qps_retained", bench::Fmt(100.0 * retained, 1) + "%"});
    bench::Row({"accepted", bench::FmtInt(blackout.accepted)});
    bench::Row({"completed_ok", bench::FmtInt(blackout.ok)});
    bench::Row({"lost", bench::FmtInt(blackout.failed)});
    bench::Row({"failovers",
                bench::FmtInt(static_cast<long long>(blackout.failovers))});
    bench::Row({"pod0_dead_nodes", bench::FmtInt(blackout.dead_nodes)});

    std::printf("\nShape check [3 pods >= 2.5x one pod; blackout retains >= "
                "80%% of steady QPS with zero lost queries]\n");
    bool ok = true;
    if (three_pod < 2.5 * one_pod) {
        std::printf("FAIL: 3 pods sustain only %.2fx one pod\n",
                    three_pod / one_pod);
        ok = false;
    }
    if (retained < 0.8) {
        std::printf("FAIL: only %.1f%% of steady QPS retained\n",
                    100.0 * retained);
        ok = false;
    }
    if (blackout.failed != 0 || blackout.lost != 0 ||
        blackout.ok != blackout.accepted) {
        std::printf("FAIL: lost queries (accepted=%d ok=%d failed=%d)\n",
                    blackout.accepted, blackout.ok, blackout.failed);
        ok = false;
    }
    if (blackout.failovers == 0) {
        std::printf("FAIL: no in-flight query exercised the failover path\n");
        ok = false;
    }
    if (blackout.dead_nodes != 48 || !blackout.pod0_latched_out) {
        std::printf("FAIL: lost pod not latched out (dead=%d)\n",
                    blackout.dead_nodes);
        ok = false;
    }
    std::printf("\nParallel federation: 4 sharded pods, open-loop 60k QPS "
                "x 160 ms, lock-step vs worker threads\n");
    const unsigned cores = std::thread::hardware_concurrency();
    const ShardedRun lockstep = RunShardedLoad(/*parallel=*/false);
    const ShardedRun threaded = RunShardedLoad(/*parallel=*/true);
    if (!lockstep.deployed || !threaded.deployed ||
        lockstep.completed == 0) {
        std::printf("FAIL: sharded federation run did not complete\n");
        return 1;
    }
    const double speedup =
        threaded.wall_ms > 0.0 ? lockstep.wall_ms / threaded.wall_ms : 0.0;
    bench::Row({"mode", "wall_ms", "completed", "mean_us", "p99_us"});
    bench::Row({"lockstep", bench::Fmt(lockstep.wall_ms, 1),
                bench::FmtInt(static_cast<long long>(lockstep.completed)),
                bench::Fmt(lockstep.load.latency_us.mean(), 1),
                bench::Fmt(lockstep.load.latency_us.P99(), 1)});
    bench::Row({"parallel", bench::Fmt(threaded.wall_ms, 1),
                bench::FmtInt(static_cast<long long>(threaded.completed)),
                bench::Fmt(threaded.load.latency_us.mean(), 1),
                bench::Fmt(threaded.load.latency_us.P99(), 1)});
    std::printf("[parallel_speedup] %.2f (cores=%u)\n", speedup, cores);
    if (lockstep.completed != threaded.completed ||
        lockstep.load.timeouts != threaded.load.timeouts ||
        lockstep.load.rejected != threaded.load.rejected ||
        lockstep.load.latency_us.samples() !=
            threaded.load.latency_us.samples()) {
        std::printf("FAIL: parallel run diverged from lock-step (completed "
                    "%llu vs %llu)\n",
                    static_cast<unsigned long long>(lockstep.completed),
                    static_cast<unsigned long long>(threaded.completed));
        ok = false;
    }
    // The speedup gate is hardware-aware: on a single-core runner the
    // group collapses to one executor and the gate degrades to a
    // report; with 4+ cores the 4 pod shards must deliver >= 2x.
    if (cores >= 4 && speedup < 2.0) {
        std::printf("FAIL: parallel speedup %.2fx < 2.0x on %u cores\n",
                    speedup, cores);
        ok = false;
    } else if (cores >= 2 && cores < 4 && speedup < 1.2) {
        std::printf("FAIL: parallel speedup %.2fx < 1.2x on %u cores\n",
                    speedup, cores);
        ok = false;
    }

    if (!ok) return 1;
    std::printf("PASS: 3 pods sustain %.2fx one pod; blackout retained "
                "%.1f%% QPS, %d/%d accepted queries completed, %llu "
                "failover(s); parallel federation %.2fx on %u core(s)\n",
                three_pod / one_pod, 100.0 * retained, blackout.ok,
                blackout.accepted,
                static_cast<unsigned long long>(blackout.failovers),
                speedup, cores);
    return 0;
}
