// Unit tests for model generation and the Model Reload cost model (§4.3).

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "common/rng.h"
#include "rank/ffe/processor.h"
#include "rank/model.h"

namespace catapult::rank {
namespace {

Model::Config SmallModelConfig() {
    Model::Config config;
    config.expression_count = 200;
    config.tree_count = 600;
    return config;
}

TEST(Model, GenerateIsDeterministic) {
    const auto a = Model::Generate(1, 42, SmallModelConfig());
    const auto b = Model::Generate(1, 42, SmallModelConfig());
    EXPECT_EQ(a->total_ffe_ops(), b->total_ffe_ops());
    EXPECT_EQ(a->total_tree_nodes(), b->total_tree_nodes());
    EXPECT_EQ(a->ffe0().programs().size(), b->ffe0().programs().size());
}

TEST(Model, DifferentModelIdsDiffer) {
    const auto a = Model::Generate(1, 42, SmallModelConfig());
    const auto b = Model::Generate(2, 42, SmallModelConfig());
    EXPECT_NE(a->total_ffe_ops(), b->total_ffe_ops());
}

TEST(Model, ExpressionsPartitionedAcrossFfeChips) {
    const auto model = Model::Generate(1, 42, SmallModelConfig());
    EXPECT_FALSE(model->ffe0().programs().empty());
    EXPECT_FALSE(model->ffe1().programs().empty());
    // Rough balance: neither chip holds everything.
    std::int64_t i0 = 0, i1 = 0;
    for (const auto& p : model->ffe0().programs()) i0 += p.InstructionCount();
    for (const auto& p : model->ffe1().programs()) i1 += p.InstructionCount();
    EXPECT_GT(i0, 0);
    EXPECT_GT(i1, 0);
    const double balance = static_cast<double>(i0) / static_cast<double>(i0 + i1);
    EXPECT_GT(balance, 0.25);
    EXPECT_LT(balance, 0.75);
}

TEST(Model, MetafeatureConsumersRunDownstream) {
    // Programs on FFE1 may read metafeatures; programs on FFE0 that
    // read a metafeature would violate pipeline order.
    Model::Config config = SmallModelConfig();
    config.expressions.small_probability = 0.5;  // force big expressions
    const auto model = Model::Generate(3, 99, config);
    EXPECT_GT(model->metafeature_count(), 0);
    for (const auto& program : model->ffe0().programs()) {
        bool writes_meta =
            program.output_slot >= kMetaFeatureBase &&
            program.output_slot < kMetaFeatureBase + kMetaFeatureSlots;
        for (const auto& instr : program.instructions) {
            if (instr.op == ffe::OpCode::kLoadFeature &&
                instr.feature >= kMetaFeatureBase &&
                instr.feature < kMetaFeatureBase + kMetaFeatureSlots) {
                // Only allowed if this chip also produced it earlier —
                // our partition forbids it entirely on FFE0 unless the
                // program itself is a metafeature producer chain.
                EXPECT_TRUE(writes_meta)
                    << "FFE0 consumer program reads a metafeature";
            }
        }
    }
}

bool ReadsMetafeature(const ffe::Expr& expr) {
    if (expr.op == ffe::OpCode::kLoadFeature) {
        return expr.feature >= kMetaFeatureBase &&
               expr.feature < kMetaFeatureBase + kMetaFeatureSlots;
    }
    for (const auto& child : expr.children) {
        if (ReadsMetafeature(*child)) return true;
    }
    return false;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Model, ScheduledFfeMatchesStagedAst) {
    // Every program of a generated model, run through the shared level
    // schedule, must write exactly what staged AST evaluation writes:
    // replay the metafeature split, evaluate the upstream parts in
    // order (a part may read an earlier part's metafeature), then the
    // remainders into the FFE output slots.
    Model::Config config = SmallModelConfig();
    config.expressions.small_probability = 0.5;  // force big expressions
    const auto model = Model::Generate(3, 99, config);

    FeatureStore input;
    Rng rng(7);
    for (std::uint32_t i = 0; i < kMetaFeatureBase; ++i) {
        input.Set(i, static_cast<float>(rng.Uniform(-2.0, 10.0)));
    }

    FeatureStore staged = input;
    const ffe::FfeCompiler compiler(config.compiler);
    std::uint32_t next_meta = 0;
    int chained_parts = 0;
    std::vector<ffe::ExprPtr> remainders;
    for (const auto& expr : model->expressions()) {
        ffe::ExprPtr work = expr->Clone();
        for (auto& part : compiler.SplitForMetafeatures(*work, next_meta)) {
            if (ReadsMetafeature(*part.expr)) ++chained_parts;
            staged.Set(part.slot, part.expr->Evaluate(staged));
        }
        remainders.push_back(std::move(work));
    }
    for (std::size_t i = 0; i < remainders.size(); ++i) {
        staged.Set(kFfeOutputBase + static_cast<std::uint32_t>(i),
                   remainders[i]->Evaluate(staged));
    }
    EXPECT_GT(chained_parts, 0) << "no FFE0 producer -> producer chain";

    // The model's partitions lower only live programs, so the lowering
    // of every program is checked on unpruned partitions of the same
    // programs.
    const ffe::Partition all0(model->ffe0().programs());
    const ffe::Partition all1(model->ffe1().programs());
    FeatureStore scheduled = input;
    ffe::FfeProcessor ffe0;
    ffe0.Load(all0);
    ffe0.ExecuteAll(scheduled);
    for (const auto& program : all0.programs()) {
        EXPECT_TRUE(SameBits(scheduled.Get(program.output_slot),
                             staged.Get(program.output_slot)))
            << "FFE0 slot " << program.output_slot;
    }
    ffe::FfeProcessor ffe1;
    ffe1.Load(all1);
    ffe1.ExecuteAll(scheduled);
    for (const auto& program : all1.programs()) {
        EXPECT_TRUE(SameBits(scheduled.Get(program.output_slot),
                             staged.Get(program.output_slot)))
            << "FFE1 slot " << program.output_slot;
    }

    // The pruned partitions write the same bits on every slot the trees
    // read.
    FeatureStore pruned = input;
    ffe0.Load(model->ffe0());
    ffe0.ExecuteAll(pruned);
    ffe1.Load(model->ffe1());
    ffe1.ExecuteAll(pruned);
    EXPECT_LT(model->ffe0().live_programs() + model->ffe1().live_programs(),
              all0.programs().size() + all1.programs().size());
    for (const std::uint32_t slot : model->compression().operand_slots()) {
        EXPECT_TRUE(SameBits(pruned.Get(slot), staged.Get(slot)))
            << "operand slot " << slot;
    }
}

TEST(Model, LiveSetIsPinned) {
    // Programs whose output reaches a tree operand, and the loads their
    // schedule runs, recorded when the backward liveness pass was
    // introduced. programs() still holds every program.
    const auto model = Model::Generate(0, 42);
    EXPECT_EQ(model->ffe0().programs().size(), 1'008u);
    EXPECT_EQ(model->ffe1().programs().size(), 1'263u);
    EXPECT_EQ(model->ffe0().live_programs(), 225u);
    EXPECT_EQ(model->ffe1().live_programs(), 349u);
    EXPECT_EQ(model->ffe0().scheduled_loads(), 2'648u);
    EXPECT_EQ(model->ffe1().scheduled_loads(), 3'134u);
}

TEST(Model, ProductionSplitAndTimingArePinned) {
    // The metafeature split decides the FFE partitions, which drive the
    // simulated FFE stage times and reload sizes. Recorded for a
    // production-sized model before the split's size bookkeeping and
    // the shared partitions were introduced.
    const auto model = Model::Generate(0, 42);
    EXPECT_EQ(model->metafeature_count(), 671);
    EXPECT_EQ(model->ReloadBytes(PipelineStage::kFfe0), 346'448);
    EXPECT_EQ(model->ReloadBytes(PipelineStage::kFfe1), 346'400);
    EXPECT_EQ(model->total_tree_nodes(), 192'756);
    ffe::FfeProcessor ffe0;
    ffe0.Load(model->ffe0());
    ffe::FfeProcessor ffe1;
    ffe1.Load(model->ffe1());
    EXPECT_EQ(ffe0.DocumentCycles(), 966);
    EXPECT_EQ(ffe1.DocumentCycles(), 1'014);
    // Per-document stage times in ps, recorded before Model owned them
    // (through the ring's former free function, at the default FE
    // timing). FE is the only stage that depends on the tuple count.
    constexpr PipelineStage kFe = PipelineStage::kFeatureExtraction;
    EXPECT_EQ(model->StageServiceTime(kFe, 100), 2'006'767);
    EXPECT_EQ(model->StageServiceTime(kFe, 2'401), 9'673'817);
    EXPECT_EQ(model->StageServiceTime(kFe, 10'000), 35'008'417);
    const std::pair<PipelineStage, Time> fixed[] = {
        {PipelineStage::kFfe0, 7'728'000},
        {PipelineStage::kFfe1, 8'112'000},
        {PipelineStage::kCompression, 1'750'140},
        {PipelineStage::kScoring0, 3'734'880},
        {PipelineStage::kScoring1, 3'734'880},
        {PipelineStage::kScoring2, 3'734'880},
        {PipelineStage::kSpare, 1'000'000},
    };
    for (const auto& [stage, time] : fixed) {
        EXPECT_EQ(model->StageServiceTime(stage, 100), time) << ToString(stage);
        EXPECT_EQ(model->StageServiceTime(stage, 10'000), time)
            << ToString(stage);
    }
}

TEST(Model, ReloadBytesPerStage) {
    const auto model = Model::Generate(1, 42, SmallModelConfig());
    EXPECT_GT(model->ReloadBytes(PipelineStage::kFfe0), 0);
    EXPECT_GT(model->ReloadBytes(PipelineStage::kFfe1), 0);
    EXPECT_GT(model->ReloadBytes(PipelineStage::kScoring0), 0);
    EXPECT_GT(model->ReloadBytes(PipelineStage::kCompression), 0);
    EXPECT_EQ(model->ReloadBytes(PipelineStage::kSpare), 0);
}

TEST(ModelStore, CachesGeneratedModels) {
    ModelStore store;
    const Model& a = store.GetOrGenerate(5, 42);
    const Model& b = store.GetOrGenerate(5, 42);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(store.resident_models(), 1u);
    store.GetOrGenerate(6, 42);
    EXPECT_EQ(store.resident_models(), 2u);
    EXPECT_NE(store.Find(5), nullptr);
    EXPECT_EQ(store.Find(99), nullptr);
}

TEST(ModelStore, WorstCaseReloadMatchesPaper) {
    // §4.3: "Model Reload can take up to 250 us" — all 2,014 M20Ks
    // reloaded from DRAM at DDR3-1333 (dual channel).
    ModelStore store;
    const Time worst = store.WorstCaseReloadTime();
    EXPECT_LE(worst, Microseconds(250));
    EXPECT_GE(worst, Microseconds(200));
}

TEST(ModelStore, TypicalReloadMuchLessThanWorstCase) {
    // §4.3: "In practice model reload takes much less than 250 us
    // because not all embedded memories ... need to be reloaded."
    ModelStore::Config config;
    config.model.expression_count = 2'400;
    config.model.tree_count = 6'000;
    ModelStore store(config);
    const Model& model = store.GetOrGenerate(0, 42);
    const Time reload = store.PipelineReloadTime(model);
    EXPECT_LT(reload, store.WorstCaseReloadTime());
    EXPECT_GT(reload, Microseconds(5));
}

TEST(ModelStore, StageReloadScalesWithFootprint) {
    ModelStore store;
    const Model& model = store.GetOrGenerate(0, 42);
    // Scoring shards carry the largest memories (Table 1 RAM 88-90%).
    EXPECT_GE(store.StageReloadTime(model, PipelineStage::kScoring0),
              store.StageReloadTime(model, PipelineStage::kCompression));
    EXPECT_EQ(store.StageReloadTime(model, PipelineStage::kSpare), 0);
}

TEST(PipelineStage, Names) {
    EXPECT_STREQ(ToString(PipelineStage::kFeatureExtraction), "FE");
    EXPECT_STREQ(ToString(PipelineStage::kSpare), "Spare");
    EXPECT_EQ(kPipelineStageCount, 8);
}

}  // namespace
}  // namespace catapult::rank
