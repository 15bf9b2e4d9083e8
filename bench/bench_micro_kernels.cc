// Google-benchmark micro-kernels: wall-clock cost of the simulator's
// hot paths (not simulated time — real host time). Useful when scaling
// experiments up to full-pod sizes.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "rank/document_generator.h"
#include "rank/feature_extraction.h"
#include "rank/model.h"
#include "rank/software_ranker.h"
#include "sim/simulator.h"

using namespace catapult;

namespace {

void BM_SimulatorScheduleFire(benchmark::State& state) {
    for (auto _ : state) {
        sim::Simulator sim;
        for (int i = 0; i < 1'000; ++i) {
            sim.ScheduleAfter(i, [] {});
        }
        benchmark::DoNotOptimize(sim.Run());
    }
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_SimulatorScheduleFire);

void BM_DocumentGeneration(benchmark::State& state) {
    rank::DocumentGenerator generator(42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(generator.Next());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DocumentGeneration);

void BM_RequestCodecEncode(benchmark::State& state) {
    rank::DocumentGenerator generator(42);
    const auto request = generator.WithTargetSize(6'500);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rank::RequestCodec::Encode(request));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestCodecEncode);

void BM_FeatureExtraction(benchmark::State& state) {
    rank::DocumentGenerator generator(42);
    const auto request = generator.WithTargetSize(
        static_cast<Bytes>(state.range(0)));
    rank::FeatureExtractor extractor;
    rank::FeatureStore store;
    for (auto _ : state) {
        store.Clear();
        extractor.Extract(request, store);
        benchmark::DoNotOptimize(store.Get(0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureExtraction)->Arg(1'024)->Arg(6'500)->Arg(65'000);

// The hit-vector tuple stream alone, which every FE pass reads; time
// per iteration is ns per document.
void BM_HitVectorReader(benchmark::State& state) {
    rank::DocumentGenerator generator(42);
    const auto request = generator.WithTargetSize(
        static_cast<Bytes>(state.range(0)));
    for (auto _ : state) {
        rank::HitVectorReader reader(request);
        rank::HitTuple tuple;
        std::uint32_t position = 0;
        while (reader.Next(tuple)) position += tuple.delta;
        benchmark::DoNotOptimize(position);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitVectorReader)->Arg(1'024)->Arg(6'500)->Arg(65'000);

/** The four production-sized models (Model::Config defaults). */
const std::vector<std::unique_ptr<rank::Model>>& ProductionModels() {
    static const auto models = [] {
        std::vector<std::unique_ptr<rank::Model>> out;
        for (std::uint32_t id = 0; id < 4; ++id) {
            out.push_back(rank::Model::Generate(id, 42));
        }
        return out;
    }();
    return models;
}

/** One document's inputs to the ranking, FFE and scoring kernels. */
struct KernelDocument {
    std::size_t model = 0;
    rank::CompressedRequest request;  ///< The whole host path's input.
    rank::FeatureStore extracted;   ///< FE output: the FFE input.
    rank::FeatureStore compressed;  ///< Compression output: scoring input.
};

/**
 * 32 distinct 6.5 KB documents, round-robin over the four production
 * models. The FFE and scoring kernels rotate through them, as the ring
 * does, so no iteration re-runs the previous one's data and the branch
 * predictor cannot learn one document's tree paths.
 */
const std::vector<KernelDocument>& KernelDocuments() {
    static const auto documents = [] {
        const auto& models = ProductionModels();
        rank::DocumentGenerator generator(42);
        std::vector<KernelDocument> out(32);
        for (std::size_t d = 0; d < out.size(); ++d) {
            KernelDocument& doc = out[d];
            doc.model = d % models.size();
            rank::RankingFunction function(models[doc.model].get());
            doc.request = generator.WithTargetSize(6'500);
            function.ExtractFeatures(doc.request, doc.extracted);
            rank::FeatureStore store = doc.extracted;
            function.RunFfe0(store);
            function.RunFfe1(store);
            function.Compress(store, doc.compressed);
        }
        return out;
    }();
    return documents;
}

// Both FFE chips' level schedules (live programs only), one document
// per iteration in rotation; time per iteration is ns per document.
// Each document's store is reused in place: re-running the chips over
// their own output rewrites the same values.
void BM_FfePartition(benchmark::State& state) {
    const auto& models = ProductionModels();
    std::vector<rank::RankingFunction> functions;
    for (const auto& model : models) functions.emplace_back(model.get());
    std::vector<KernelDocument> documents = KernelDocuments();
    std::size_t next = 0;
    for (auto _ : state) {
        KernelDocument& doc = documents[next];
        next = (next + 1) % documents.size();
        functions[doc.model].RunFfe0(doc.extracted);
        functions[doc.model].RunFfe1(doc.extracted);
        benchmark::DoNotOptimize(doc.extracted.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FfePartition);

// All three scoring shards' tree walks, one compressed document per
// iteration in rotation; time per iteration is ns per document.
void BM_EnsembleScore(benchmark::State& state) {
    const auto& models = ProductionModels();
    const auto& documents = KernelDocuments();
    std::size_t next = 0;
    for (auto _ : state) {
        const KernelDocument& doc = documents[next];
        next = (next + 1) % documents.size();
        benchmark::DoNotOptimize(
            models[doc.model]->ensemble().Score(doc.compressed));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnsembleScore);

// The whole host ranking path, RankingFunction::Score (FE, both FFE
// chips, the three scorer shards), one document per iteration in
// rotation; time per iteration is ns per document.
void BM_RankingScore(benchmark::State& state) {
    const auto& models = ProductionModels();
    std::vector<rank::RankingFunction> functions;
    for (const auto& model : models) functions.emplace_back(model.get());
    const auto& documents = KernelDocuments();
    std::size_t next = 0;
    for (auto _ : state) {
        const KernelDocument& doc = documents[next];
        next = (next + 1) % documents.size();
        benchmark::DoNotOptimize(functions[doc.model].Score(doc.request));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankingScore);

void BM_FullFunctionalScore(benchmark::State& state) {
    static const auto model = [] {
        rank::Model::Config config;
        config.expression_count = 400;
        config.tree_count = 1'200;
        return rank::Model::Generate(0, 42, config);
    }();
    rank::RankingFunction function(model.get());
    rank::DocumentGenerator generator(42);
    const auto request = generator.WithTargetSize(6'500);
    for (auto _ : state) {
        benchmark::DoNotOptimize(function.Score(request));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullFunctionalScore);

}  // namespace

BENCHMARK_MAIN();
