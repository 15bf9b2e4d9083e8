// Google-benchmark micro-kernels: wall-clock cost of the simulator's
// hot paths (not simulated time — real host time). Useful when scaling
// experiments up to full-pod sizes.

#include <benchmark/benchmark.h>

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

/** Production-sized model (Model::Config defaults), generated once. */
const rank::Model& ProductionModel() {
    static const auto model = rank::Model::Generate(0, 42);
    return *model;
}

// Both FFE chips' level schedules on one extracted 6.5 KB document;
// time per iteration is ns per document.
void BM_FfePartition(benchmark::State& state) {
    rank::RankingFunction function(&ProductionModel());
    rank::DocumentGenerator generator(42);
    rank::FeatureStore store;
    function.ExtractFeatures(generator.WithTargetSize(6'500), store);
    for (auto _ : state) {
        function.RunFfe0(store);
        function.RunFfe1(store);
        benchmark::DoNotOptimize(store.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FfePartition);

// All three scoring shards' flat tree walks over one compressed
// document; time per iteration is ns per document.
void BM_EnsembleScore(benchmark::State& state) {
    const rank::Model& model = ProductionModel();
    rank::RankingFunction function(&model);
    rank::DocumentGenerator generator(42);
    rank::FeatureStore store;
    function.ExtractFeatures(generator.WithTargetSize(6'500), store);
    function.RunFfe0(store);
    function.RunFfe1(store);
    rank::FeatureStore compressed;
    function.Compress(store, compressed);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.ensemble().Score(compressed));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnsembleScore);

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
