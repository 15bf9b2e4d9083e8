// Parallel federation runtime, differentially tested: the sharded
// federation run on worker threads must be bit-identical to the same
// sharded federation run lock-step on one thread — per-query outcomes,
// latencies, dispatcher counters, pool counters and total events fired
// — across a scenario that includes a whole-pod blackout, shard-side
// admission rejects, failover and live pod re-admission.
//
// Also pins the two batched-injection equivalences (batch=1 vs K>1
// produce identical simulated metrics) and the PoolArena cross-thread
// block-migration contract the worker threads rely on.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/object_pool.h"
#include "rank/document_generator.h"
#include "service/federation_testbed.h"

namespace catapult::service {
namespace {

struct QueryRecord {
    bool accepted = false;
    bool ok = false;
    Time latency = -1;
    Time completed_at = -1;

    bool operator==(const QueryRecord& o) const {
        return accepted == o.accepted && ok == o.ok &&
               latency == o.latency && completed_at == o.completed_at;
    }
};

struct ScenarioTrace {
    std::vector<QueryRecord> queries;
    bool reattach_ok = false;
    Time reattach_done_at = -1;
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t lost = 0;
    std::uint64_t failovers = 0;
    std::uint64_t pod0_dispatched = 0;
    std::uint64_t pod1_dispatched = 0;
    std::uint64_t events_fired = 0;
    Time end_time = -1;
    // Observability exports (deterministic views): the merged metric
    // registry, the stitched span timeline, and every hub snapshot.
    std::string metrics_json;
    std::string trace_json;
    std::string snapshots;
};

/**
 * Blackout + re-admission under paced load on a sharded 2-pod
 * federation; every observable lands in the trace. `parallel` is the
 * only knob — everything else, seeds included, is identical.
 */
ScenarioTrace RunShardedScenario(bool parallel) {
    FederationTestbed::Config config;
    config.pod_count = 2;
    config.pod.ring_count = 2;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.host.hard_reboot_duration = Milliseconds(500);
    config.pod.host.crash_reboot_delay = Milliseconds(50);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
    config.sharding.enabled = true;
    config.sharding.parallel = parallel;
    // Force real worker threads even on a single-core CI runner: the
    // differential claim is about the algorithm, not the core count.
    config.sharding.max_threads = 3;
    // Full observability on: the deterministic exports must be
    // byte-identical across execution modes too.
    config.observability.enabled = true;
    config.observability.hub.cadence = Milliseconds(10);
    FederationTestbed bed(config);
    EXPECT_TRUE(bed.DeployAndSettle());

    ScenarioTrace trace;
    const int kQueries = 1'200;
    trace.queries.resize(kQueries);

    const Time blackout_at = bed.Now() + Milliseconds(30);
    bed.pod(0).failure_injector().SchedulePodBlackout(blackout_at);
    bed.simulator().ScheduleAt(blackout_at + Milliseconds(30), [&] {
        bed.ReattachPod(0, [&](bool ok) {
            trace.reattach_ok = ok;
            trace.reattach_done_at = bed.simulator().Now();
        });
    });

    // Paced load spanning pre-blackout, the incident and re-admission.
    // Arrival events, Inject and completion delivery all live on the
    // coordinator shard, so the per-query records are single-writer.
    rank::DocumentGenerator generator(29);
    for (int i = 0; i < kQueries; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(60) * i + Milliseconds(1), [&, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                QueryRecord& record =
                    trace.queries[static_cast<std::size_t>(i)];
                const Time injected_at = bed.simulator().Now();
                const auto status = bed.dispatcher().Inject(
                    i % 32, request,
                    [&record, &bed, injected_at](const ScoreResult& r) {
                        record.ok = r.ok;
                        record.latency = r.ok
                            ? r.latency
                            : bed.simulator().Now() - injected_at;
                        record.completed_at = bed.simulator().Now();
                    });
                record.accepted = status == host::SendStatus::kOk;
            });
    }
    trace.events_fired = bed.Run();

    trace.accepted = bed.dispatcher().counters().accepted;
    trace.completed = bed.dispatcher().counters().completed;
    trace.lost = bed.dispatcher().counters().lost;
    trace.failovers = bed.dispatcher().counters().failovers;
    trace.pod0_dispatched = bed.pod(0).pool().counters().dispatched;
    trace.pod1_dispatched = bed.pod(1).pool().counters().dispatched;
    trace.end_time = bed.Now();
    trace.metrics_json = bed.observability()->MetricsJson(false);
    trace.trace_json = bed.observability()->TraceJson();
    for (const auto& snap : bed.observability()->hub().snapshots()) {
        trace.snapshots += std::to_string(snap.at);
        trace.snapshots += ":";
        trace.snapshots += snap.json;
        trace.snapshots += "\n";
    }
    return trace;
}

TEST(ParallelFederation, ParallelRunIsBitIdenticalToLockstep) {
    const ScenarioTrace lockstep = RunShardedScenario(/*parallel=*/false);
    const ScenarioTrace threaded = RunShardedScenario(/*parallel=*/true);

    // The scenario actually exercised what it claims to: queries
    // completed, the blackout triggered failovers, the pod came back.
    EXPECT_GT(lockstep.completed, 0u);
    EXPECT_GT(lockstep.failovers, 0u);
    EXPECT_TRUE(lockstep.reattach_ok);
    EXPECT_GT(lockstep.pod1_dispatched, 0u);

    // Bit-identity: every per-query observable and every counter.
    EXPECT_EQ(lockstep.queries, threaded.queries);
    EXPECT_EQ(lockstep.reattach_ok, threaded.reattach_ok);
    EXPECT_EQ(lockstep.reattach_done_at, threaded.reattach_done_at);
    EXPECT_EQ(lockstep.accepted, threaded.accepted);
    EXPECT_EQ(lockstep.completed, threaded.completed);
    EXPECT_EQ(lockstep.lost, threaded.lost);
    EXPECT_EQ(lockstep.failovers, threaded.failovers);
    EXPECT_EQ(lockstep.pod0_dispatched, threaded.pod0_dispatched);
    EXPECT_EQ(lockstep.pod1_dispatched, threaded.pod1_dispatched);
    EXPECT_EQ(lockstep.events_fired, threaded.events_fired);
    EXPECT_EQ(lockstep.end_time, threaded.end_time);

    // Observability exports, byte-for-byte: merged deterministic
    // metrics, the stitched span timeline (span ids are per-shard
    // deterministic), and every cadence snapshot the hub took.
    EXPECT_FALSE(lockstep.metrics_json.empty());
    EXPECT_NE(lockstep.trace_json.find("\"query\""), std::string::npos);
    EXPECT_FALSE(lockstep.snapshots.empty());
    EXPECT_EQ(lockstep.metrics_json, threaded.metrics_json);
    EXPECT_EQ(lockstep.trace_json, threaded.trace_json);
    EXPECT_EQ(lockstep.snapshots, threaded.snapshots);
}

// ------------------------------------------------------ pool migration

// The parallel runtime frees pooled blocks on whichever shard thread
// drops the last reference. The arena contract (object_pool.h): the
// block migrates to the releasing thread's free list and is recycled
// there; slab storage is immortal, so the migration is safe.
TEST(ObjectPool, BlocksMigrateToTheReleasingThread) {
    struct Payload {
        std::uint64_t a;
        std::uint64_t b;
    };
    auto first = MakePooled<Payload>(Payload{1, 2});
    void* raw = first.get();
    std::thread worker([&] {
        // Last reference dropped on the worker: the block enters the
        // worker's arena...
        first.reset();
        // ...and the worker's next allocation of the same size class
        // recycles exactly that block.
        auto second = MakePooled<Payload>(Payload{3, 4});
        EXPECT_EQ(static_cast<void*>(second.get()), raw);
        EXPECT_EQ(second->a, 3u);
    });
    worker.join();
    // The main thread's arena refills fresh storage, unaffected.
    auto third = MakePooled<Payload>(Payload{5, 6});
    EXPECT_EQ(third->a, 5u);
}

}  // namespace
}  // namespace catapult::service
