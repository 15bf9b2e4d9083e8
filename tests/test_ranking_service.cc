// Integration tests: the full 8-FPGA ranking service on a pod (§4, §5).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "rank/document_generator.h"
#include "rank/software_ranker.h"
#include "service/load_generator.h"
#include "service/testbed.h"

namespace catapult::service {
namespace {

PodTestbed::Config FastConfig(bool compute_scores = false) {
    PodTestbed::Config config;
    // Small models keep generation fast in unit tests.
    config.service.models.model.expression_count = 300;
    config.service.models.model.tree_count = 900;
    config.service.compute_scores = compute_scores;
    // Shorten configuration so deploy tests run quickly.
    config.fabric.device.configure_time = Milliseconds(10);
    return config;
}

TEST(RankingService, DeploysAcrossEightNodes) {
    PodTestbed bed(FastConfig());
    EXPECT_TRUE(bed.DeployAndSettle());
    for (int i = 0; i < RankingService::kRingLength; ++i) {
        const int node = bed.service().RingNode(i);
        EXPECT_TRUE(bed.fabric().device(node).active());
        EXPECT_FALSE(bed.fabric().shell(node).rx_halted());
    }
    // Table 1 images are loaded in ring order.
    EXPECT_EQ(bed.fabric().device(bed.service().RingNode(0)).loaded_image()
                  .role_name,
              "rank.FE");
    EXPECT_EQ(bed.fabric().device(bed.service().RingNode(7)).loaded_image()
                  .role_name,
              "rank.Spare");
}

TEST(RankingService, ScoresOneDocumentEndToEnd) {
    PodTestbed bed(FastConfig(/*compute_scores=*/true));
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(42);
    rank::CompressedRequest request = generator.Next();
    request.query.model_id = 0;

    ScoreResult result;
    ASSERT_EQ(bed.service().Inject(0, 0, request,
                                   [&](const ScoreResult& r) { result = r; }),
              host::SendStatus::kOk);
    bed.simulator().Run();
    EXPECT_TRUE(result.ok);
    EXPECT_GT(result.latency, 0);
    // Unloaded end-to-end latency is tens of microseconds (§5, Fig 11),
    // far under a millisecond.
    EXPECT_LT(result.latency, Milliseconds(1));
}

TEST(RankingService, FpgaScoreIdenticalToSoftware) {
    // §4: "Our implementation produces results that are identical to
    // software." The score computed by the distributed pipeline must
    // equal the software reference. Documents interleave four models,
    // so every document after the first follows a Model Reload.
    PodTestbed bed(FastConfig(/*compute_scores=*/true));
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(7);

    std::map<std::uint32_t, std::unique_ptr<rank::RankingFunction>>
        references;
    for (int i = 0; i < 8; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = static_cast<std::uint32_t>(i % 4);
        auto& reference = references[request.query.model_id];
        if (!reference) {
            reference = std::make_unique<rank::RankingFunction>(
                &bed.service().models().GetOrGenerate(
                    request.query.model_id, bed.service().config().model_seed));
        }
        ScoreResult result;
        ASSERT_EQ(bed.service().Inject(i % 8, 0, request,
                                       [&](const ScoreResult& r) { result = r; }),
                  host::SendStatus::kOk);
        bed.simulator().Run();
        ASSERT_TRUE(result.ok);
        EXPECT_EQ(result.score, reference->ReferenceScore(request))
            << "doc " << i;
    }
    EXPECT_GE(bed.service().counters().model_reloads, 8u);
}

TEST(RankingService, TimingIndependentOfScoring) {
    // The ring models timing only; the score is one call at the
    // response. Scoring on or off, the same 4-model closed-loop stream
    // must see the same per-document latency and fire the same events.
    struct Run {
        std::vector<Time> latency;
        std::uint64_t events = 0;
        std::uint64_t model_reloads = 0;
        int nonzero_scores = 0;
    };
    const auto run = [](bool compute_scores) {
        PodTestbed bed(FastConfig(compute_scores));
        EXPECT_TRUE(bed.DeployAndSettle());
        rank::DocumentGenerator generator(23);
        constexpr int kDocs = 32;
        constexpr int kClients = 4;
        Run out;
        out.latency.assign(kDocs, -1);
        int next = 0;
        std::function<void(int)> send = [&](int client) {
            if (next >= kDocs) return;
            const int id = next++;
            rank::CompressedRequest request = generator.Next();
            request.query.model_id = static_cast<std::uint32_t>(id % 4);
            const auto status = bed.service().Inject(
                client, 0, request, [&, id, client](const ScoreResult& r) {
                    if (r.ok) out.latency.at(id) = r.latency;
                    if (r.score != 0.0f) ++out.nonzero_scores;
                    send(client);
                });
            EXPECT_EQ(status, host::SendStatus::kOk) << "doc " << id;
        };
        for (int c = 0; c < kClients; ++c) send(c);
        bed.simulator().Run();
        out.events = bed.simulator().EventsFired();
        out.model_reloads = bed.service().counters().model_reloads;
        return out;
    };
    const Run scored = run(true);
    const Run timed = run(false);
    for (std::size_t i = 0; i < scored.latency.size(); ++i) {
        EXPECT_GT(scored.latency[i], 0) << "doc " << i << " unanswered";
        EXPECT_EQ(scored.latency[i], timed.latency[i]) << "doc " << i;
    }
    EXPECT_EQ(scored.events, timed.events);
    EXPECT_EQ(scored.model_reloads, timed.model_reloads);
    EXPECT_GT(scored.model_reloads, 1u);
    EXPECT_GT(scored.nonzero_scores, 0);
    EXPECT_EQ(timed.nonzero_scores, 0);
}

TEST(RankingService, AnyNodeCanInject) {
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(13);
    int completed = 0;
    for (int ring_index = 0; ring_index < 8; ++ring_index) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        ASSERT_EQ(bed.service().Inject(ring_index, 0, request,
                                       [&](const ScoreResult& r) {
                                           if (r.ok) ++completed;
                                       }),
                  host::SendStatus::kOk);
    }
    bed.simulator().Run();
    EXPECT_EQ(completed, 8);
}

TEST(RankingService, SpareInjectorSeesSlightlyHigherLatency) {
    // Figure 13: the Spare (tail) node's requests travel further than
    // the head's, so its latency is slightly higher but comparable.
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(17);

    // Warm up: the very first document pays the initial Model Reload.
    {
        rank::CompressedRequest warm = generator.WithTargetSize(6'500);
        warm.query.model_id = 0;
        bed.service().Inject(0, 1, warm, [](const ScoreResult&) {});
        bed.simulator().Run();
    }

    auto measure = [&](int ring_index) {
        rank::CompressedRequest request = generator.WithTargetSize(6'500);
        request.query.model_id = 0;
        Time latency = 0;
        bed.service().Inject(ring_index, 0, request,
                             [&](const ScoreResult& r) { latency = r.latency; });
        bed.simulator().Run();
        return latency;
    };
    const Time head = measure(0);
    const Time spare = measure(7);
    EXPECT_GT(spare, head);
    EXPECT_LT(static_cast<double>(spare), static_cast<double>(head) * 1.6);
}

TEST(RankingService, ClosedLoopThroughputSaturates) {
    // Figure 9: throughput grows with injecting threads then saturates
    // at the FE-bound pipeline rate.
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    auto run_with_threads = [&](int threads) {
        ClosedLoopInjector::Config config;
        config.injecting_ring_indices = {0};
        config.threads_per_node = threads;
        config.documents_per_thread = 60;
        ClosedLoopInjector injector(&bed.service(), config);
        return injector.Run().ThroughputPerSecond();
    };
    const double t1 = run_with_threads(1);
    const double t8 = run_with_threads(8);
    const double t16 = run_with_threads(16);
    EXPECT_GT(t8, t1 * 2.5);
    // Saturation: 16 threads buys little over 8.
    EXPECT_LT(t16, t8 * 1.5);
}

TEST(RankingService, MultiNodeAggregateScalesNearLinearly) {
    // Figure 12: aggregate throughput grows almost linearly with the
    // number of injecting nodes (1 thread each).
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    auto run_with_nodes = [&](int nodes) {
        ClosedLoopInjector::Config config;
        config.injecting_ring_indices.clear();
        for (int n = 0; n < nodes; ++n) {
            config.injecting_ring_indices.push_back(n);
        }
        config.threads_per_node = 1;
        config.documents_per_thread = 60;
        ClosedLoopInjector injector(&bed.service(), config);
        return injector.Run().ThroughputPerSecond();
    };
    const double one = run_with_nodes(1);
    const double four = run_with_nodes(4);
    // Near-linear: 4 injectors achieve well over 2.5x one injector
    // (queueing in the shared pipeline costs some efficiency; the full
    // curve is printed by bench_fig12).
    EXPECT_GT(four, one * 2.6);
}

TEST(RankingService, ModelSwitchesTriggerReloads) {
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(23);
    int completed = 0;
    for (int i = 0; i < 6; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = static_cast<std::uint32_t>(i % 3);
        bed.service().Inject(0, i % 16, request, [&](const ScoreResult& r) {
            if (r.ok) ++completed;
        });
    }
    bed.simulator().Run();
    EXPECT_EQ(completed, 6);
    // At least one reload per distinct model.
    EXPECT_GE(bed.service().counters().model_reloads, 3u);
}

TEST(RankingService, LatencyGrowsWithDocumentSize) {
    // Figure 11: unloaded pipeline latency is proportional to the
    // compressed document size.
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(29);

    auto measure = [&](Bytes size) {
        rank::CompressedRequest request = generator.WithTargetSize(size);
        request.query.model_id = 0;
        Time latency = 0;
        bed.service().Inject(0, 0, request,
                             [&](const ScoreResult& r) { latency = r.latency; });
        bed.simulator().Run();
        return latency;
    };
    const Time small = measure(1'024);
    const Time medium = measure(16'384);
    const Time large = measure(63'000);
    EXPECT_LT(small, medium);
    EXPECT_LT(medium, large);
    // Monotonic and strongly size-dependent (the paper's Fig. 11 spans
    // ~30x because its floor excludes host-side costs; our user-level
    // measurement carries a fixed ~40 us of stage/host latency).
    EXPECT_GT(static_cast<double>(large) / static_cast<double>(small), 2.0);
}

TEST(RankingService, OpenLoopInjectionCompletes) {
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    OpenLoopInjector::Config config;
    config.rate_per_server = 2'000.0;
    config.duration = Milliseconds(20);
    OpenLoopInjector injector(&bed.service(), Rng(31), config);
    const LoadResult result = injector.Run();
    EXPECT_GT(result.completed, 100u);
    EXPECT_EQ(result.timeouts, 0u);
    EXPECT_GT(result.latency_us.mean(), 0.0);
}

}  // namespace
}  // namespace catapult::service
