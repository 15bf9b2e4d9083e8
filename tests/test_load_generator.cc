// Tests for the pool/federation load generators (§5) against fake
// Targets on a bare simulator: the closed loop's retry budget and the
// open loop's phase attribution, independent of any fabric.

#include <gtest/gtest.h>

#include <array>

#include "service/load_generator.h"
#include "sim/simulator.h"

namespace catapult::service {
namespace {

TEST(ClientLoop, RejectingTargetGivesUpWithinTheRetryBudget) {
    sim::Simulator sim;
    int sends = 0;
    constexpr int kConcurrency = 3;
    ClientLoop loop(
        &sim,
        [&](int, const rank::CompressedRequest&, Completion) {
            ++sends;
            return host::SendStatus::kSlotBusy;
        },
        {.concurrency = kConcurrency, .documents = 10});
    const LoadResult result = loop.Run();

    EXPECT_EQ(result.completed, 0u);
    EXPECT_EQ(result.timeouts, static_cast<std::uint64_t>(kConcurrency));
    // Each client sends once, retries kMaxRetries times, then gives up.
    EXPECT_EQ(sends, kConcurrency * (ClientLoop::kMaxRetries + 1));
    // Client c starts c µs in, so the run ends once the last client's
    // budget is spent: never later than budget + start stagger.
    const Time budget = ClientLoop::kMaxRetries * ClientLoop::kRetryDelay;
    EXPECT_LE(sim.Now(), budget + Microseconds(kConcurrency - 1));
}

/** What the fake target does with the k-th arrival. */
struct Answer {
    bool accept = true;
    bool ok = true;
    Time delay = 0;  ///< Completion delay, reported as its latency.
};

TEST(ArrivalLoop, AttributesArrivalsAndCompletionsToTheirPhases) {
    // 1 kQPS fixed beat over 10 ms: arrivals at 0, 1, ..., 9 ms. One
    // boundary at 5 ms, SLO 1 ms.
    constexpr Time kHalf = Microseconds(500);
    constexpr Time kLate = Microseconds(1'500);
    const std::array<Answer, 10> script = {{
        {true, true, kHalf},   // 0 ms -> lands 0.5 ms, phase 0, in SLO
        {true, true, kLate},   // 1 ms -> 2.5 ms, phase 0, late
        {false, true, 0},      // 2 ms: rejected in phase 0
        {true, true, kHalf},   // 3 ms -> 3.5 ms, phase 0, in SLO
        {true, true, kLate},   // 4 ms -> 5.5 ms: crosses into phase 1
        {true, true, kHalf},   // 5 ms -> 5.5 ms, phase 1, in SLO
        {true, true, kLate},   // 6 ms -> 7.5 ms, phase 1, late
        {true, false, kHalf},  // 7 ms -> 7.5 ms: timeout in phase 1
        {true, true, kHalf},   // 8 ms -> 8.5 ms, phase 1, in SLO
        {true, true, kLate},   // 9 ms -> 10.5 ms: past duration, phase 1
    }};
    sim::Simulator sim;
    std::size_t next = 0;
    Target target = [&](int, const rank::CompressedRequest&,
                        Completion done) {
        const Answer answer = script.at(next++);
        if (!answer.accept) return host::SendStatus::kSlotBusy;
        sim.ScheduleAfter(answer.delay, [done = std::move(done), answer] {
            ScoreResult r;
            r.ok = answer.ok;
            r.latency = answer.delay;
            done(r);
        });
        return host::SendStatus::kOk;
    };
    ArrivalLoop::Config config;
    config.rate_qps = 1'000.0;
    config.duration = Milliseconds(10);
    config.phase_offsets = {Milliseconds(5)};
    config.slo = Milliseconds(1);
    ArrivalLoop loop(&sim, target, config);
    const LoadResult result = loop.Run();

    EXPECT_EQ(next, script.size());
    EXPECT_GT(sim.Now(), config.duration);  // the late completion drained
    ASSERT_EQ(result.phases.size(), 2u);
    const Phase& before = result.phases[0];
    const Phase& after = result.phases[1];
    EXPECT_EQ(before.start, 0);
    EXPECT_EQ(before.span, Milliseconds(5));
    EXPECT_EQ(after.start, Milliseconds(5));
    EXPECT_EQ(after.span, Milliseconds(5));

    // Arrivals, accepts and rejects count where the arrival happened.
    EXPECT_EQ(before.arrivals, 5u);
    EXPECT_EQ(before.accepted, 4u);
    EXPECT_EQ(before.rejected, 1u);
    EXPECT_EQ(after.arrivals, 5u);
    EXPECT_EQ(after.accepted, 5u);
    EXPECT_EQ(after.rejected, 0u);
    // Completions count where they land: arrival 4 crosses the
    // boundary and arrival 9 lands after `duration`, in the final phase.
    EXPECT_EQ(before.completed, 3u);
    EXPECT_EQ(before.completed_in_slo, 2u);
    EXPECT_EQ(before.timeouts, 0u);
    EXPECT_EQ(after.completed, 5u);
    EXPECT_EQ(after.completed_in_slo, 2u);
    EXPECT_EQ(after.timeouts, 1u);
    EXPECT_EQ(after.latency_us.count(), 5u);

    // The phases partition the totals.
    std::uint64_t arrivals = 0, accepted = 0, rejected = 0, completed = 0;
    for (const Phase& phase : result.phases) {
        arrivals += phase.arrivals;
        accepted += phase.accepted;
        rejected += phase.rejected;
        completed += phase.completed;
    }
    EXPECT_EQ(arrivals, script.size());
    EXPECT_EQ(accepted, result.accepted);
    EXPECT_EQ(rejected, result.rejected);
    EXPECT_EQ(completed, result.completed);
    EXPECT_EQ(result.accepted + result.rejected, arrivals);
    EXPECT_EQ(result.completed, 8u);
    EXPECT_EQ(result.timeouts, 1u);
    EXPECT_EQ(result.latency_us.count(), result.completed);
    EXPECT_EQ(result.elapsed, config.duration);
}

}  // namespace
}  // namespace catapult::service
