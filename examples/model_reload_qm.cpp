// Queue Manager and Model Reload in action (§4.3): a query mix spanning
// four models (languages / experiments) flows through the head of the
// pipeline. The QM batches per-model queues to amortize reloads; this
// example reports reload counts, reload costs per stage, and the
// throughput effect of model locality.

#include <cstdio>

#include "rank/document_generator.h"
#include "service/load_generator.h"
#include "service/testbed.h"

using namespace catapult;

namespace {

double RunMix(service::PodTestbed& bed, int model_count, int docs,
              std::uint64_t seed, std::uint64_t& reloads) {
    rank::DocumentGenerator::Config corpus;
    corpus.model_count = static_cast<std::uint32_t>(model_count);
    rank::DocumentGenerator generator(seed, corpus);

    const std::uint64_t reloads_before =
        bed.service().counters().model_reloads;
    const Time start = bed.simulator().Now();
    int completed = 0;
    // 8 concurrent requests from node 0, refilled as responses arrive.
    int outstanding = 0;
    int sent = 0;
    std::vector<bool> thread_busy(32, false);
    std::function<void()> pump = [&] {
        while (outstanding < 32 && sent < docs) {
            int thread = -1;
            for (int t = 0; t < 32; ++t) {
                if (!thread_busy[static_cast<std::size_t>(t)]) {
                    thread = t;
                    break;
                }
            }
            if (thread < 0) return;
            rank::CompressedRequest request = generator.Next();
            ++sent;
            ++outstanding;
            thread_busy[static_cast<std::size_t>(thread)] = true;
            bed.service().Inject(0, thread, request,
                                 [&, thread](const service::ScoreResult& r) {
                                     thread_busy[static_cast<std::size_t>(thread)] = false;
                                     --outstanding;
                                     if (r.ok) ++completed;
                                     pump();
                                 });
        }
    };
    pump();
    bed.simulator().Run();
    reloads = bed.service().counters().model_reloads - reloads_before;
    const double seconds = ToSeconds(bed.simulator().Now() - start);
    return seconds > 0 ? completed / seconds : 0;
}

}  // namespace

int main() {
    service::PodTestbed::Config config;
    config.fabric.device.configure_time = Milliseconds(20);
    service::PodTestbed bed(config);
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }

    // Per-stage reload costs for the default model (§4.3).
    auto& store = bed.service().models();
    const rank::Model& model = bed.service().DefaultModel();
    std::printf("Model Reload costs (model 0):\n");
    for (int s = 0; s < rank::kPipelineStageCount; ++s) {
        const auto stage = static_cast<rank::PipelineStage>(s);
        std::printf("  %-7s %8.1f us (%lld bytes from DRAM)\n",
                    ToString(stage),
                    ToMicroseconds(store.StageReloadTime(model, stage)),
                    static_cast<long long>(model.ReloadBytes(stage)));
    }
    std::printf("  worst case (all M20Ks): %.1f us [paper: up to 250 us]\n\n",
                ToMicroseconds(store.WorstCaseReloadTime()));

    // Throughput vs number of live models in the query mix.
    std::printf("Throughput under a mixed-model query stream (600 docs):\n");
    std::printf("  %8s %14s %10s\n", "models", "docs/s", "reloads");
    for (const int models : {1, 2, 4}) {
        std::uint64_t reloads = 0;
        const double tput = RunMix(bed, models, 600, 77 + models, reloads);
        std::printf("  %8d %14.0f %10llu\n", models, tput,
                    static_cast<unsigned long long>(reloads));
    }
    std::printf(
        "\nThe Queue Manager drains each model's DRAM queue before\n"
        "switching (or on timeout), so reload counts stay far below the\n"
        "document count — \"crucial to achieving high performance\" "
        "(§4.3).\n");
    return 0;
}
