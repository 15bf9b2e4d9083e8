// Unit tests for the Feature Extraction stage (§4.4).

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "rank/document_generator.h"
#include "rank/feature_extraction.h"
#include "rank/feature_space.h"
#include "rank/model.h"
#include "reference_feature_fsm.h"

namespace catapult::rank {
namespace {

TEST(FeatureExtraction, FortyThreeStateMachines) {
    // §4.4: "We currently implement 43 unique feature extraction state
    // machines, with up to 4,484 features."
    const auto& descriptors = FeatureExtractor::Descriptors();
    EXPECT_EQ(descriptors.size(), 43u);
    std::uint32_t total = 0;
    for (const auto& d : descriptors) total += d.feature_count;
    EXPECT_EQ(total, kDynamicFeatureCount);
    EXPECT_EQ(kDynamicFeatureCount, 4'484u);
}

TEST(FeatureExtraction, FeatureIdsArePackedAndDisjoint) {
    std::uint32_t next = 0;
    for (const auto& d : FeatureExtractor::Descriptors()) {
        EXPECT_EQ(d.feature_base, next);
        next += d.feature_count;
    }
    EXPECT_EQ(next, kDynamicFeatureCount);
}

TEST(FeatureExtraction, DeterministicAcrossRuns) {
    DocumentGenerator generator(3);
    const CompressedRequest request = generator.Next();
    FeatureExtractor extractor;
    FeatureStore a, b;
    extractor.Extract(request, a);
    extractor.Extract(request, b);
    EXPECT_EQ(a.raw(), b.raw());
}

TEST(FeatureExtraction, ExtractorsAreInterchangeable) {
    // Two extractor instances produce identical features — the basis
    // for software/FPGA score identity (§4).
    DocumentGenerator generator(3);
    const CompressedRequest request = generator.Next();
    FeatureExtractor e1, e2;
    FeatureStore a, b;
    e1.Extract(request, a);
    e2.Extract(request, b);
    EXPECT_EQ(a.raw(), b.raw());
}

TEST(FeatureExtraction, EmitsNonZeroFeatures) {
    DocumentGenerator generator(5);
    const CompressedRequest request = generator.Next();
    FeatureExtractor extractor;
    FeatureStore store;
    extractor.Extract(request, store);
    // A realistic document lights up a meaningful share of the space.
    EXPECT_GT(store.NonZeroCount(), 100u);
    EXPECT_LT(store.NonZeroCount(), kFeatureUniverse);
}

TEST(FeatureExtraction, EmptyDocumentEmitsNothingDynamic) {
    CompressedRequest request;
    request.tuple_count = 0;
    request.query.term_count = 3;
    FeatureExtractor extractor;
    FeatureStore store;
    extractor.Extract(request, store);
    for (std::uint32_t id = 0; id < kDynamicFeatureCount; ++id) {
        EXPECT_EQ(store.Get(id), 0.0f);
    }
}

TEST(FeatureExtraction, SoftwareFeaturesRemapped) {
    CompressedRequest request;
    request.tuple_count = 0;
    request.software_features.push_back({60'123, 2.5f});
    FeatureExtractor extractor;
    FeatureStore store;
    extractor.Extract(request, store);
    EXPECT_EQ(store.Get(SoftwareFeatureSlot(60'123)), 2.5f);
}

TEST(FeatureExtraction, CountOccurrencesCountsHits) {
    // Synthetic request with known tuples, through the tuple-level entry.
    const auto& descriptors = FeatureExtractor::Descriptors();
    const FsmDescriptor& count_fsm = descriptors[0];
    ASSERT_EQ(count_fsm.name, "NumberOfOccurrences");
    ASSERT_EQ(count_fsm.source, EmitSource::kCount);
    ASSERT_EQ(count_fsm.tuples, TupleClass::kAll);

    // Three hits for (stream 0, term 0), one for (stream 1, term 2).
    const std::vector<HitTuple> tuples = {
        {.delta = 5, .term = 0, .stream = 0, .properties = 0},
        {.delta = 3, .term = 0, .stream = 0, .properties = 0},
        {.delta = 9, .term = 0, .stream = 0, .properties = 0},
        {.delta = 2, .term = 2, .stream = 1, .properties = 0},
    };
    FeatureExtractor extractor;
    FeatureStore store;
    extractor.ExtractTuples(tuples, 100, store);
    // Cell (stream 0, term 0) has 3 values per cell; primary first.
    EXPECT_EQ(store.Get(count_fsm.feature_base + 0), 3.0f);
    // Cell (stream 1, term 2): cell index = 1*10 + 2 = 12, vpc = 3.
    EXPECT_EQ(store.Get(count_fsm.feature_base + 12 * 3), 1.0f);
}

/** True when the two stores hold the same float bits in every slot. */
bool SameBits(const FeatureStore& a, const FeatureStore& b) {
    return std::memcmp(a.raw().data(), b.raw().data(),
                       a.raw().size() * sizeof(float)) == 0;
}

/** Ids where the two stores differ, for failure messages. */
std::string Differences(const FeatureStore& a, const FeatureStore& b) {
    std::string out;
    int shown = 0;
    for (std::uint32_t id = 0; id < a.raw().size() && shown < 8; ++id) {
        if (std::memcmp(&a.raw()[id], &b.raw()[id], sizeof(float)) != 0) {
            out += " id " + std::to_string(id) + ": " +
                   std::to_string(a.Get(id)) + " vs " +
                   std::to_string(b.Get(id)) + ";";
            ++shown;
        }
    }
    return out;
}

TEST(FeatureExtraction, DescriptorsMatchReferenceFsms) {
    // The fused descriptors own the same feature ids as the 43 separate
    // FSMs, and the windowed ones keep their window or threshold.
    const auto& fused = FeatureExtractor::Descriptors();
    const auto& specs = reference::Specs();
    ASSERT_EQ(fused.size(), specs.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        EXPECT_EQ(fused[i].name, specs[i].name);
        EXPECT_EQ(fused[i].feature_base, specs[i].feature_base);
        EXPECT_EQ(fused[i].feature_count, specs[i].feature_count);
        if (specs[i].kind == reference::FsmKind::kProximityWindow ||
            specs[i].kind == reference::FsmKind::kEarlySection) {
            EXPECT_EQ(fused[i].param, specs[i].param);
        }
    }
}

TEST(FeatureExtraction, MatchesReferenceFsmsOnGeneratedDocuments) {
    // Every dynamic and software feature, bit for bit, on documents of
    // the Fig. 4 size mix and on truncated 64 KB ones.
    FeatureExtractor extractor;
    for (const std::uint64_t seed : {7ull, 1ull, 9001ull}) {
        DocumentGenerator generator(seed);
        for (int i = 0; i < 20; ++i) {
            const CompressedRequest request =
                i < 18 ? generator.Next()
                       : generator.WithTargetSize(kMaxCompressedBytes);
            FeatureStore fused, expected;
            extractor.Extract(request, fused);
            reference::Extract(request, expected);
            EXPECT_TRUE(SameBits(fused, expected))
                << "seed " << seed << " doc " << i
                << Differences(fused, expected);
        }
    }
}

/**
 * A hand-built tuple stream at the edges of every filter: deltas at and
 * one past each proximity window and the tight bound, positions at and
 * one past each early threshold, properties at the class bounds, stream
 * switches (including raw streams that wrap modulo kMetastreamCount),
 * and terms equal to, one past and unrelated to the previous term,
 * including terms >= kMaxQueryTerms that wrap into the cells. The first
 * tuple meets the 0xFF "no previous tuple" state with term 0xFF.
 */
std::vector<HitTuple> BoundaryStream() {
    std::vector<HitTuple> tuples;
    std::uint32_t position = 0;
    const auto add = [&](std::uint32_t delta, std::uint8_t term,
                         std::uint8_t stream, std::uint16_t properties) {
        tuples.push_back({.delta = delta, .term = term, .stream = stream,
                          .properties = properties});
        position += delta;
    };
    add(0, 0xFF, 3, 0);

    // Positions exactly at, and one past, each early threshold.
    for (const auto& spec : reference::Specs()) {
        if (spec.kind != reference::FsmKind::kEarlySection) continue;
        add(spec.param - position, 1, 0, 16);
        add(1, 1, 0, 15);
    }

    std::vector<std::uint32_t> deltas = {0, 1, 3, 4};
    for (const auto& spec : reference::Specs()) {
        if (spec.kind != reference::FsmKind::kProximityWindow) continue;
        deltas.push_back(spec.param);
        deltas.push_back(spec.param + 1);
    }
    const std::uint16_t properties[] = {0, 1, 15, 16, 255, 256, 65535};
    // Consecutive pairs: repeat, next, next, repeat, unrelated, next
    // (wrapping 9 -> 10 into cell 0), next, repeat, next, unrelated,
    // repeat of 0xFF, unrelated, next, unrelated.
    const std::uint8_t terms[] = {0,  0,  1,   2,   2, 9, 10,
                                  11, 11, 12, 255, 255, 4, 5};
    const std::uint8_t streams[] = {0, 0, 0, 1, 1, 2, 2, 3, 4, 0, 5, 1, 6};
    std::size_t i = 0;
    for (const std::uint32_t delta : deltas) {
        for (const std::uint16_t props : properties) {
            add(delta, terms[i % std::size(terms)],
                streams[i % std::size(streams)], props);
            ++i;
        }
    }
    return tuples;
}

TEST(FeatureExtraction, MatchesReferenceFsmsOnBoundaryStream) {
    const std::vector<HitTuple> tuples = BoundaryStream();
    FeatureExtractor extractor;
    for (const std::uint32_t length : {0u, 100u, 1'000'000u}) {
        FeatureStore fused, expected;
        extractor.ExtractTuples(tuples, length, fused);
        reference::ExtractTuples(tuples, length, expected);
        EXPECT_TRUE(SameBits(fused, expected))
            << "length " << length << Differences(fused, expected);

        // The stream drives every FSM, so a dropped or misrouted
        // feature cannot hide behind zeros on both sides.
        for (const auto& d : FeatureExtractor::Descriptors()) {
            bool lit = false;
            for (std::uint32_t id = d.feature_base;
                 id < d.feature_base + d.feature_count; ++id) {
                lit = lit || expected.Get(id) != 0.0f;
            }
            EXPECT_TRUE(lit) << d.name;
        }
    }
    // Every prefix, so each tuple's effect is checked on its own.
    for (std::size_t n = 0; n <= tuples.size(); ++n) {
        FeatureStore fused, expected;
        const std::span<const HitTuple> prefix(tuples.data(), n);
        extractor.ExtractTuples(prefix, 100, fused);
        reference::ExtractTuples(prefix, 100, expected);
        ASSERT_TRUE(SameBits(fused, expected))
            << "prefix " << n << Differences(fused, expected);
    }
}

TEST(FeatureExtraction, GoldenFeaturesArePinned) {
    // FNV-1a over the float bits of all 4,484 dynamic features and the
    // software slots for 64 documents (32 from each of two generator
    // seeds), recorded with 43 separate per-tuple FSMs. Any change to
    // a feature's bits changes the hash, including features no model
    // reads.
    FeatureExtractor extractor;
    FeatureStore store;
    std::uint64_t hash = 1469598103934665603ull;
    for (const std::uint64_t seed : {11ull, 2025ull}) {
        DocumentGenerator generator(seed);
        for (int i = 0; i < 32; ++i) {
            store.Clear();
            extractor.Extract(generator.Next(), store);
            for (std::uint32_t id = 0;
                 id < kSoftwareFeatureBase + kSoftwareFeatureSlots; ++id) {
                const float value = store.Get(id);
                std::uint32_t bits;
                std::memcpy(&bits, &value, sizeof bits);
                hash ^= bits;
                hash *= 1099511628211ull;
            }
        }
    }
    EXPECT_EQ(hash, 0x474a0ff35a15c53full);
}

/**
 * FE stage time for `tuples` hit-vector tuples, as the ring charges it.
 * It depends on FeatureExtractor::Timing alone, so a small model serves.
 */
Time FeStageTime(std::uint32_t tuples) {
    static const auto model = [] {
        Model::Config config;
        config.expression_count = 16;
        config.tree_count = 30;
        return Model::Generate(0, 1, config);
    }();
    return model->StageServiceTime(PipelineStage::kFeatureExtraction, tuples);
}

TEST(FeatureExtraction, ServiceTimeScalesWithTuples) {
    const Time small = FeStageTime(100u);
    const Time large = FeStageTime(10'000u);
    EXPECT_GT(large, small);
    // Linear-ish scaling.
    const double ratio = static_cast<double>(large) / static_cast<double>(small);
    EXPECT_GT(ratio, 5.0);
}

TEST(FeatureExtraction, AverageDocumentNearMacropipelineBudget) {
    // §4.2: macropipeline stages target <= 8 us. FE, the bottleneck
    // stage, should be in that neighbourhood for an average (~2,400
    // tuple) document.
    const Time t = FeStageTime(2'400u);
    EXPECT_GT(t, Microseconds(4));
    EXPECT_LT(t, Microseconds(16));
}

TEST(FeatureStore, NonZeroCountAndClear) {
    FeatureStore store;
    EXPECT_EQ(store.NonZeroCount(), 0u);
    store.Set(0, 1.0f);
    store.Set(100, 2.0f);
    EXPECT_EQ(store.NonZeroCount(), 2u);
    store.Clear();
    EXPECT_EQ(store.NonZeroCount(), 0u);
}

}  // namespace
}  // namespace catapult::rank
