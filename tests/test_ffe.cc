// Unit + property tests for the FFE stack: expressions, compiler,
// metafeature splitting, thread assignment, and processor timing (§4.5).

#include <gtest/gtest.h>

#include <cmath>

#include "rank/ffe/compiler.h"
#include "rank/ffe/expression.h"
#include "rank/ffe/partition.h"
#include "rank/ffe/processor.h"

namespace catapult::rank::ffe {
namespace {

FeatureStore MakeStore() {
    FeatureStore store;
    for (std::uint32_t i = 0; i < kDynamicFeatureCount; i += 3) {
        store.Set(i, static_cast<float>(i % 17) * 0.25f);
    }
    return store;
}

/** Run `programs` through the scheduled executor on a copy of `store`. */
FeatureStore RunScheduled(std::vector<Program> programs,
                          const FeatureStore& store) {
    const Partition partition(std::move(programs));
    FeatureStore out = store;
    std::vector<float> registers = partition.register_image();
    partition.Execute(out, registers);
    return out;
}

TEST(Expression, LeafEvaluation) {
    FeatureStore store;
    store.Set(5, 3.5f);
    EXPECT_EQ(MakeConst(2.0f)->Evaluate(store), 2.0f);
    EXPECT_EQ(MakeFeature(5)->Evaluate(store), 3.5f);
}

TEST(Expression, ArithmeticOps) {
    FeatureStore store;
    auto two = [] { return MakeConst(2.0f); };
    auto three = [] { return MakeConst(3.0f); };
    EXPECT_EQ(MakeBinary(OpCode::kAdd, two(), three())->Evaluate(store), 5.0f);
    EXPECT_EQ(MakeBinary(OpCode::kSub, two(), three())->Evaluate(store), -1.0f);
    EXPECT_EQ(MakeBinary(OpCode::kMul, two(), three())->Evaluate(store), 6.0f);
    EXPECT_EQ(MakeBinary(OpCode::kMax, two(), three())->Evaluate(store), 3.0f);
    EXPECT_EQ(MakeBinary(OpCode::kMin, two(), three())->Evaluate(store), 2.0f);
    EXPECT_EQ(MakeBinary(OpCode::kCmpGt, three(), two())->Evaluate(store), 1.0f);
    EXPECT_EQ(MakeBinary(OpCode::kCmpGt, two(), three())->Evaluate(store), 0.0f);
}

TEST(Expression, ComplexOps) {
    FeatureStore store;
    EXPECT_FLOAT_EQ(
        MakeBinary(OpCode::kDiv, MakeConst(7.0f), MakeConst(2.0f))
            ->Evaluate(store),
        3.5f);
    // Division by zero saturates to 0 (hardware behaviour).
    EXPECT_EQ(MakeBinary(OpCode::kDiv, MakeConst(7.0f), MakeConst(0.0f))
                  ->Evaluate(store),
              0.0f);
    EXPECT_FLOAT_EQ(MakeUnary(OpCode::kLn, MakeConst(std::exp(1.0f)))
                        ->Evaluate(store),
                    1.0f);
    EXPECT_FLOAT_EQ(MakeUnary(OpCode::kExp, MakeConst(0.0f))->Evaluate(store),
                    1.0f);
    EXPECT_EQ(MakeUnary(OpCode::kFloatToInt, MakeConst(2.9f))->Evaluate(store),
              2.0f);
    EXPECT_EQ(MakeUnary(OpCode::kFloatToInt, MakeConst(-2.9f))->Evaluate(store),
              -2.0f);
}

TEST(Expression, SelectEvaluatesAllThenMuxes) {
    FeatureStore store;
    auto select = MakeSelect(MakeConst(1.0f), MakeConst(10.0f),
                             MakeConst(20.0f));
    EXPECT_EQ(select->Evaluate(store), 10.0f);
    auto select2 = MakeSelect(MakeConst(0.0f), MakeConst(10.0f),
                              MakeConst(20.0f));
    EXPECT_EQ(select2->Evaluate(store), 20.0f);
}

TEST(Expression, OpCountAndComplexCount) {
    auto e = MakeBinary(OpCode::kAdd, MakeUnary(OpCode::kLn, MakeFeature(1)),
                        MakeConst(1.0f));
    EXPECT_EQ(e->OpCount(), 4);
    EXPECT_EQ(e->ComplexOpCount(), 1);
    EXPECT_EQ(e->Depth(), 3);
}

TEST(Expression, CloneIsDeepAndEqual) {
    ExpressionGenerator generator(3);
    const ExprPtr original = generator.Generate();
    const ExprPtr copy = original->Clone();
    const FeatureStore store = MakeStore();
    EXPECT_EQ(original->Evaluate(store), copy->Evaluate(store));
    EXPECT_EQ(original->OpCount(), copy->OpCount());
}

TEST(ExpressionGenerator, SizesSpanSmallToLarge) {
    // §4.5: FFEs range "from very simple ... to large and complex
    // (thousands of operations)".
    ExpressionGenerator generator(11);
    int small = 0, large = 0;
    for (int i = 0; i < 3'000; ++i) {
        const int ops = generator.Generate()->OpCount();
        if (ops <= 50) ++small;
        if (ops >= 500) ++large;
    }
    EXPECT_GT(small, 2'000);
    EXPECT_GT(large, 5);
}

TEST(ExpressionGenerator, TargetSizeApproximate) {
    ExpressionGenerator generator(13);
    const ExprPtr e = generator.GenerateWithSize(200);
    EXPECT_GT(e->OpCount(), 100);
    EXPECT_LE(e->OpCount(), 300);  // budget is approximate by design
}

TEST(Compiler, InterpreterMatchesAstExactly) {
    // The load-bearing §4 property: compiled-program execution equals
    // direct AST evaluation bit-for-bit, across many random expressions.
    ExpressionGenerator generator(17);
    FfeCompiler compiler;
    const FeatureStore store = MakeStore();
    for (int i = 0; i < 300; ++i) {
        const ExprPtr expr = generator.Generate();
        const Program program = compiler.Compile(*expr, kFfeOutputBase);
        const float direct = expr->Evaluate(store);
        const float interpreted =
            RunScheduled({program}, store).Get(program.output_slot);
        EXPECT_EQ(direct, interpreted) << "expression " << i;
    }
}

TEST(Compiler, ProgramMetadata) {
    FfeCompiler compiler;
    auto e = MakeBinary(OpCode::kAdd, MakeUnary(OpCode::kLn, MakeFeature(1)),
                        MakeConst(1.0f));
    const Program p = compiler.Compile(*e, 42);
    EXPECT_EQ(p.output_slot, 42u);
    EXPECT_EQ(p.InstructionCount(), 4);
    EXPECT_EQ(p.complex_ops, 1);
    // Critical path: ldf(2) + ln(24) + add(4) = 30.
    EXPECT_EQ(p.serial_latency, 30);
}

TEST(Compiler, SplitPreservesSemantics) {
    // §4.5: oversized expressions split across FPGAs via metafeatures;
    // upstream parts + rewritten remainder must equal the original.
    ExpressionGenerator generator(19);
    FfeCompiler::Config config;
    config.split_threshold_ops = 64;
    config.split_chunk_ops = 32;
    FfeCompiler compiler(config);
    FeatureStore store = MakeStore();

    for (int i = 0; i < 20; ++i) {
        const ExprPtr original = generator.GenerateWithSize(400);
        const float expected = original->Evaluate(store);

        ExprPtr work = original->Clone();
        std::uint32_t next_slot = 0;
        const auto parts = compiler.SplitForMetafeatures(*work, next_slot);
        EXPECT_FALSE(parts.empty());
        EXPECT_LE(work->OpCount(), config.split_threshold_ops + 1);

        // Evaluate upstream parts into their metafeature slots, then the
        // remainder.
        FeatureStore staged = store;
        for (const auto& part : parts) {
            staged.Set(part.slot, part.expr->Evaluate(staged));
        }
        EXPECT_EQ(work->Evaluate(staged), expected) << "expression " << i;
    }
}

TEST(Compiler, SmallExpressionsNotSplit) {
    FfeCompiler compiler;
    ExpressionGenerator generator(23);
    ExprPtr small = generator.GenerateWithSize(20);
    std::uint32_t next_slot = 0;
    const auto parts = compiler.SplitForMetafeatures(*small, next_slot);
    EXPECT_TRUE(parts.empty());
    EXPECT_EQ(next_slot, 0u);
}

TEST(ThreadAssignment, LongestFirstSlotZero) {
    // §4.5: "The assembler maps the expressions with the longest
    // expected latency to Thread Slot 0 on all cores, then fills in
    // Slot 1 ..."
    std::vector<Program> programs(8);
    for (int i = 0; i < 8; ++i) {
        programs[static_cast<std::size_t>(i)].serial_latency = 100 - i * 10;
    }
    const ThreadAssignment assignment = AssignThreads(programs, 2, 4);
    // Slot 0 on cores 0,1 get programs 0,1 (longest), slot 1 gets 2,3...
    EXPECT_EQ(assignment.thread_queues[0][0], (std::vector<int>{0}));
    EXPECT_EQ(assignment.thread_queues[1][0], (std::vector<int>{1}));
    EXPECT_EQ(assignment.thread_queues[0][1], (std::vector<int>{2}));
    EXPECT_EQ(assignment.thread_queues[1][3], (std::vector<int>{7}));
}

TEST(ThreadAssignment, OverflowAppendsRoundRobin) {
    std::vector<Program> programs(10);
    for (int i = 0; i < 10; ++i) {
        programs[static_cast<std::size_t>(i)].serial_latency = 1000 - i;
    }
    const ThreadAssignment assignment = AssignThreads(programs, 2, 4);
    // 8 slots; programs 8 and 9 append back at slot 0.
    EXPECT_EQ(assignment.thread_queues[0][0], (std::vector<int>{0, 8}));
    EXPECT_EQ(assignment.thread_queues[1][0], (std::vector<int>{1, 9}));
}

TEST(ThreadAssignment, AllProgramsAssignedExactlyOnce) {
    ExpressionGenerator generator(29);
    FfeCompiler compiler;
    std::vector<Program> programs;
    for (int i = 0; i < 500; ++i) {
        programs.push_back(
            compiler.Compile(*generator.Generate(), kFfeOutputBase));
    }
    const ThreadAssignment assignment = AssignThreads(programs, 60, 4);
    std::vector<int> seen(programs.size(), 0);
    for (const auto& core : assignment.thread_queues) {
        for (const auto& slot : core) {
            for (int index : slot) ++seen[static_cast<std::size_t>(index)];
        }
    }
    for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(FfeProcessor, SixtyCoresFourThreadsSixPerCluster) {
    const FfeProcessor processor;
    EXPECT_EQ(processor.config().core_count, 60);       // §4.5
    EXPECT_EQ(processor.config().threads_per_core, 4);  // §4.5
    EXPECT_EQ(processor.config().cores_per_cluster, 6); // §4.5
}

TEST(FfeProcessor, ExecuteAllWritesOutputSlots) {
    ExpressionGenerator generator(31);
    FfeCompiler compiler;
    std::vector<Program> programs;
    for (int i = 0; i < 50; ++i) {
        programs.push_back(compiler.Compile(
            *generator.Generate(), kFfeOutputBase + static_cast<std::uint32_t>(i)));
    }
    const Partition partition(std::move(programs));
    FfeProcessor processor;
    processor.Load(partition);
    FeatureStore store = MakeStore();
    processor.ExecuteAll(store);
    int non_zero = 0;
    for (int i = 0; i < 50; ++i) {
        if (store.Get(kFfeOutputBase + static_cast<std::uint32_t>(i)) != 0.0f) {
            ++non_zero;
        }
    }
    EXPECT_GT(non_zero, 10);
}

TEST(FfeProcessor, TimingBoundsAreConsistent) {
    ExpressionGenerator generator(37);
    FfeCompiler compiler;
    std::vector<Program> programs;
    std::int64_t total_instructions = 0;
    for (int i = 0; i < 1'000; ++i) {
        programs.push_back(compiler.Compile(*generator.Generate(),
                                            kFfeOutputBase));
        total_instructions += programs.back().InstructionCount();
    }
    const Partition partition(std::move(programs));
    FfeProcessor processor;
    processor.Load(partition);
    const auto breakdown = processor.Breakdown();
    // Issue bound >= perfectly balanced instructions per core.
    EXPECT_GE(breakdown.max_core_issue_cycles, total_instructions / 60);
    // Document cycles covers every bound plus overhead.
    EXPECT_GE(processor.DocumentCycles(),
              breakdown.max_core_issue_cycles);
    EXPECT_GE(processor.DocumentCycles(),
              breakdown.max_thread_serial_cycles);
    EXPECT_GE(processor.DocumentCycles(),
              breakdown.max_cluster_complex_cycles);
    EXPECT_EQ(processor.TotalInstructions(), total_instructions);
}

TEST(FfeProcessor, MoreCoresProcessFaster) {
    ExpressionGenerator generator(41);
    FfeCompiler compiler;
    std::vector<Program> programs;
    for (int i = 0; i < 2'000; ++i) {
        programs.push_back(compiler.Compile(*generator.Generate(),
                                            kFfeOutputBase));
    }
    const Partition partition(std::move(programs));
    FfeProcessor::Config small_config;
    small_config.core_count = 15;
    FfeProcessor small(small_config);
    small.Load(partition);
    FfeProcessor big;  // 60 cores
    big.Load(partition);
    EXPECT_LT(big.DocumentCycles(), small.DocumentCycles());
}

TEST(FfeProcessor, StageWithinMacropipelineBudget) {
    // A production-sized model partition (§4.2: stages target <= 8 us;
    // FFE runs at 125 MHz -> 1,000 cycles). Long expressions must first
    // be split across the chips via metafeatures (§4.5) — that splitting
    // is exactly what keeps any one thread's dependency chain bounded.
    ExpressionGenerator generator(43);
    FfeCompiler compiler;
    std::vector<Program> programs;
    std::uint32_t next_meta = 0;
    for (int i = 0; i < 1'200; ++i) {
        ExprPtr expr = generator.Generate();
        for (auto& part : compiler.SplitForMetafeatures(*expr, next_meta)) {
            programs.push_back(compiler.Compile(*part.expr, part.slot));
        }
        programs.push_back(compiler.Compile(*expr, kFfeOutputBase));
    }
    const Partition partition(std::move(programs));
    FfeProcessor processor;
    processor.Load(partition);
    EXPECT_LT(processor.DocumentServiceTime(), Microseconds(12));
    EXPECT_GT(processor.DocumentServiceTime(), Microseconds(1));
}

TEST(Partition, SlotDependenciesFollowProgramOrder) {
    // FFE0 metafeature producers may read what earlier producers wrote
    // (store -> load), and a slot may be read before it is rewritten
    // (load -> store). The schedule must keep program-order semantics.
    constexpr std::uint32_t kMeta = kMetaFeatureBase;
    FfeCompiler compiler;
    std::vector<Program> programs;
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kAdd, MakeFeature(3), MakeConst(1.0f)), kMeta));
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kMul, MakeFeature(kMeta), MakeConst(2.0f)),
        kFfeOutputBase));
    // Rewrites kMeta at the level of the load above.
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kSub, MakeConst(1.0f), MakeConst(0.5f)), kMeta));
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kAdd, MakeFeature(kMeta), MakeConst(10.0f)),
        kFfeOutputBase + 1));

    const FeatureStore store = MakeStore();
    const float first = store.Get(3) + 1.0f;
    const FeatureStore out = RunScheduled(std::move(programs), store);
    EXPECT_EQ(out.Get(kFfeOutputBase), first * 2.0f);
    EXPECT_EQ(out.Get(kMeta), 0.5f);
    EXPECT_EQ(out.Get(kFfeOutputBase + 1), 10.5f);
}

TEST(Partition, GroupsOpsByLevelAndOpcode) {
    // 64 independent adds of two features: one load batch, one add
    // batch, one store batch. Constants are preloaded, not scheduled.
    FfeCompiler compiler;
    std::vector<Program> programs;
    for (std::uint32_t i = 0; i < 64; ++i) {
        programs.push_back(compiler.Compile(
            *MakeBinary(OpCode::kAdd, MakeFeature(i), MakeFeature(i + 1)),
            kFfeOutputBase + i));
        programs.push_back(compiler.Compile(
            *MakeBinary(OpCode::kSub, MakeConst(1.0f), MakeConst(0.5f)),
            kFfeOutputBase + 64 + i));
    }
    const Partition partition(programs);
    // Level 0: loads, subs; level 1: adds, sub stores; level 2: stores.
    EXPECT_EQ(partition.batch_count(), 5u);
    EXPECT_EQ(partition.TotalInstructions(), 64 * 6);
    const FeatureStore store = MakeStore();
    const FeatureStore out = RunScheduled(std::move(programs), store);
    for (std::uint32_t i = 0; i < 64; ++i) {
        EXPECT_EQ(out.Get(kFfeOutputBase + i), store.Get(i) + store.Get(i + 1));
        EXPECT_EQ(out.Get(kFfeOutputBase + 64 + i), 0.5f);
    }
}

TEST(Partition, LoadsEachSlotOncePerStoredVersion) {
    // Slot kMeta is loaded twice, then stored, then loaded three more
    // times (once as a whole program). The schedule runs one load per
    // stored version, and each load keeps its own version's value.
    constexpr std::uint32_t kMeta = kMetaFeatureBase + 5;
    FfeCompiler compiler;
    std::vector<Program> programs;
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kAdd, MakeFeature(kMeta), MakeFeature(kMeta)),
        kFfeOutputBase));
    programs.push_back(compiler.Compile(*MakeConst(7.0f), kMeta));
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kMul, MakeFeature(kMeta), MakeFeature(kMeta)),
        kFfeOutputBase + 1));
    programs.push_back(compiler.Compile(*MakeFeature(kMeta),
                                        kFfeOutputBase + 2));

    const Partition partition(programs);
    EXPECT_EQ(partition.TotalInstructions(), 3 + 1 + 3 + 1);
    EXPECT_EQ(partition.scheduled_loads(), 2u);
    // One register per instruction, less the three repeated loads.
    EXPECT_EQ(partition.register_image().size(), 8u - 3u);

    FeatureStore store;
    store.Set(kMeta, 3.0f);
    const FeatureStore out = RunScheduled(std::move(programs), store);
    EXPECT_EQ(out.Get(kFfeOutputBase), 6.0f);       // before the store
    EXPECT_EQ(out.Get(kMeta), 7.0f);
    EXPECT_EQ(out.Get(kFfeOutputBase + 1), 49.0f);  // after it
    EXPECT_EQ(out.Get(kFfeOutputBase + 2), 7.0f);
}

TEST(Partition, LiveMaskSchedulesOnlyLivePrograms) {
    // FFE0: producer kMeta, producer kMeta+1 (reads kMeta), a program
    // whose slot nobody reads, and two writers of kMeta+2 (the first is
    // overwritten before any read). FFE1: the consumer (reads kMeta+1
    // and kMeta+2), whose slot alone is needed, and an unread program.
    constexpr std::uint32_t kMeta = kMetaFeatureBase;
    constexpr std::uint32_t kOut = kFfeOutputBase;
    FfeCompiler compiler;
    const auto add = [](std::uint32_t a, ExprPtr b) {
        return MakeBinary(OpCode::kAdd, MakeFeature(a), std::move(b));
    };
    std::vector<Program> ffe0;
    ffe0.push_back(compiler.Compile(*add(3, MakeConst(1.0f)), kMeta));
    ffe0.push_back(compiler.Compile(*add(kMeta, MakeFeature(6)), kMeta + 1));
    ffe0.push_back(compiler.Compile(*add(9, MakeConst(3.0f)), kOut + 1));
    ffe0.push_back(compiler.Compile(*add(12, MakeConst(2.0f)), kMeta + 2));
    ffe0.push_back(compiler.Compile(*add(15, MakeConst(5.0f)), kMeta + 2));
    std::vector<Program> ffe1;
    ffe1.push_back(compiler.Compile(
        *MakeBinary(OpCode::kSub, MakeFeature(kMeta + 1),
                    MakeFeature(kMeta + 2)),
        kOut));
    ffe1.push_back(compiler.Compile(*add(18, MakeFeature(18)), kOut + 2));

    std::vector<bool> needed(kFeatureUniverse, false);
    needed[kOut] = true;
    const std::vector<bool> live1 = MarkLivePrograms(ffe1, needed);
    const std::vector<bool> live0 = MarkLivePrograms(ffe0, needed);
    EXPECT_EQ(live1, (std::vector<bool>{true, false}));
    EXPECT_EQ(live0, (std::vector<bool>{true, true, false, false, true}));
    // Left needed: the FE features the live chain reads.
    for (std::uint32_t slot = 0; slot < kFeatureUniverse; ++slot) {
        EXPECT_EQ(needed[slot], slot == 3 || slot == 6 || slot == 15)
            << "slot " << slot;
    }

    // A pruned partition schedules exactly what a partition of its live
    // programs alone schedules, while its programs, instruction count
    // and chip timing stay those of every program.
    const auto check = [](const std::vector<Program>& programs,
                          const std::vector<bool>& live,
                          std::size_t live_loads, std::size_t all_loads) {
        const Partition pruned(programs, live);
        const Partition all(programs);
        std::vector<Program> live_programs;
        for (std::size_t p = 0; p < programs.size(); ++p) {
            if (live[p]) live_programs.push_back(programs[p]);
        }
        const Partition only(std::move(live_programs));
        EXPECT_EQ(pruned.live_programs(), only.programs().size());
        EXPECT_EQ(all.live_programs(), programs.size());
        EXPECT_EQ(pruned.scheduled_loads(), live_loads);
        EXPECT_EQ(all.scheduled_loads(), all_loads);
        EXPECT_EQ(only.scheduled_loads(), live_loads);
        EXPECT_EQ(pruned.batch_count(), only.batch_count());
        EXPECT_EQ(pruned.register_image(), only.register_image());
        EXPECT_EQ(pruned.programs().size(), programs.size());
        EXPECT_EQ(pruned.TotalInstructions(), all.TotalInstructions());
        FfeProcessor a;
        a.Load(pruned);
        FfeProcessor b;
        b.Load(all);
        EXPECT_EQ(a.DocumentCycles(), b.DocumentCycles());
    };
    check(ffe0, live0, 4, 6);  // features 3, 6, 15 and kMeta; + 9, 12
    check(ffe1, live1, 2, 3);  // kMeta+1, kMeta+2; + 18 (loaded once)

    // The needed slot gets the unpruned value; unread slots keep their
    // input.
    const auto run = [](const std::vector<Program>& programs,
                        const std::vector<bool>& live, FeatureStore& store) {
        const Partition partition(programs, live);
        std::vector<float> registers = partition.register_image();
        partition.Execute(store, registers);
    };
    const FeatureStore store = MakeStore();
    FeatureStore full = store;
    run(ffe0, {}, full);
    run(ffe1, {}, full);
    FeatureStore pruned = store;
    run(ffe0, live0, pruned);
    run(ffe1, live1, pruned);
    const float meta1 = (store.Get(3) + 1.0f) + store.Get(6);
    EXPECT_EQ(full.Get(kOut), meta1 - (store.Get(15) + 5.0f));
    EXPECT_EQ(pruned.Get(kOut), full.Get(kOut));
    EXPECT_EQ(full.Get(kOut + 1), store.Get(9) + 3.0f);
    EXPECT_EQ(pruned.Get(kOut + 1), store.Get(kOut + 1));
    EXPECT_EQ(pruned.Get(kOut + 2), store.Get(kOut + 2));
}

TEST(OpLatencies, ComplexOpsAreLong) {
    const OpLatencies latencies;
    EXPECT_GT(latencies.For(OpCode::kLn), latencies.For(OpCode::kAdd));
    EXPECT_GT(latencies.For(OpCode::kDiv), latencies.For(OpCode::kAdd));
    EXPECT_TRUE(IsComplexOp(OpCode::kLn));
    EXPECT_TRUE(IsComplexOp(OpCode::kDiv));
    EXPECT_TRUE(IsComplexOp(OpCode::kExp));
    EXPECT_TRUE(IsComplexOp(OpCode::kFloatToInt));
    EXPECT_FALSE(IsComplexOp(OpCode::kAdd));
    EXPECT_FALSE(IsComplexOp(OpCode::kSelect));
}

}  // namespace
}  // namespace catapult::rank::ffe
