#include "rank/feature_extraction.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace catapult::rank {

namespace {

/** Filter bounds of the tight and high classes, and of kStrongPropertyMax. */
constexpr std::uint32_t kTightDelta = 4;
constexpr std::uint32_t kHighProperty = 256;
constexpr std::uint32_t kStrongProperty = 16;

/** kBigram params: the relation of a tuple to the previous one. */
enum Bigram : std::uint32_t {
    kNext,            ///< Same stream, term = previous + 1.
    kRepeat,          ///< Same stream, term = previous.
    kCrossStream,     ///< Stream switch, term = previous.
    kNextWithProps,   ///< kNext with properties != 0.
};

/**
 * Build the 43 FSM descriptors. Feature ids are packed contiguously:
 * 30 rich per-(stream,term) FSMs emit 3 values per cell (primary,
 * length-normalized, log-compressed), 10 emit 2, and the 3 aggregate
 * FSMs own the tail of the id space; TermShare's allocation includes
 * reserved ids for future term slots, so the dynamic space totals
 * exactly 4,484 features.
 */
std::vector<FsmDescriptor> BuildDescriptors() {
    using S = EmitSource;
    using T = TupleClass;
    struct Spec {
        const char* name;
        EmitSource source;
        TupleClass tuples;
        std::uint32_t param;
        std::uint32_t values_per_cell;
        std::uint32_t cells;
    };
    const std::uint32_t st = kMetastreamCount * kMaxQueryTerms;  // 40
    const std::vector<Spec> specs = {
        // 30 rich per-(stream,term) FSMs, 3 values per cell.
        {"NumberOfOccurrences", S::kCount, T::kAll, 0, 3, st},
        {"NumberOfOccurrences.props", S::kCount, T::kProps, 0, 3, st},
        {"NumberOfOccurrences.tight", S::kCount, T::kTight, 0, 3, st},
        {"FirstOccurrence", S::kFirst, T::kAll, 0, 3, st},
        {"LastOccurrence", S::kLast, T::kAll, 0, 3, st},
        {"CoverageSpan", S::kSpan, T::kAll, 0, 3, st},
        {"MeanGap", S::kMeanGap, T::kAll, 0, 3, st},
        {"MaxGap", S::kMaxGap, T::kAll, 0, 3, st},
        {"PropertySum", S::kPropertySum, T::kProps, 0, 3, st},
        {"PropertySum.high", S::kPropertySum, T::kHigh, 0, 3, st},
        {"PropertyMax", S::kPropertyMax, T::kAll, 0, 3, st},
        {"BigramNext", S::kBigram, T::kAll, kNext, 3, st},
        {"BigramRepeat", S::kBigram, T::kAll, kRepeat, 3, st},
        {"BigramCrossStream", S::kBigram, T::kAll, kCrossStream, 3, st},
        {"Proximity.8", S::kProximity, T::kAll, 8, 3, st},
        {"Proximity.16", S::kProximity, T::kAll, 16, 3, st},
        {"Proximity.32", S::kProximity, T::kAll, 32, 3, st},
        {"Proximity.64", S::kProximity, T::kAll, 64, 3, st},
        {"Proximity.128", S::kProximity, T::kAll, 128, 3, st},
        {"Proximity.256", S::kProximity, T::kAll, 256, 3, st},
        {"Proximity.512", S::kProximity, T::kAll, 512, 3, st},
        {"Proximity.1024", S::kProximity, T::kAll, 1024, 3, st},
        {"Early.128", S::kEarly, T::kAll, 128, 3, st},
        {"Early.512", S::kEarly, T::kAll, 512, 3, st},
        {"Early.2048", S::kEarly, T::kAll, 2048, 3, st},
        {"Early.8192", S::kEarly, T::kAll, 8192, 3, st},
        {"Early.32768", S::kEarly, T::kAll, 32768, 3, st},
        {"FirstOccurrence.props", S::kFirst, T::kProps, 0, 3, st},
        {"LastOccurrence.props", S::kLast, T::kProps, 0, 3, st},
        {"MaxGap.props", S::kMaxGap, T::kProps, 0, 3, st},
        // 10 per-(stream,term) FSMs, 2 values per cell.
        {"NumberOfOccurrences.wide", S::kWideCount, T::kAll, 0, 2, st},
        {"FirstOccurrence.tight", S::kFirst, T::kTight, 0, 2, st},
        {"LastOccurrence.tight", S::kLast, T::kTight, 0, 2, st},
        {"CoverageSpan.props", S::kSpan, T::kProps, 0, 2, st},
        {"MeanGap.props", S::kMeanGap, T::kProps, 0, 2, st},
        {"PropertySum.low", S::kLowPropertySum, T::kAll, 0, 2, st},
        {"PropertyMax.props", S::kStrongPropertyMax, T::kAll, 0, 2, st},
        {"BigramNext.props", S::kBigram, T::kAll, kNextWithProps, 2, st},
        {"Proximity.4096", S::kProximity, T::kAll, 4096, 2, st},
        {"Early.131072", S::kEarly, T::kAll, 131072, 2, st},
        // Aggregate FSMs.
        {"StreamDensity", S::kStreamDensity, T::kAll, 0, 2, kMetastreamCount},
        {"StreamSpan", S::kStreamSpan, T::kAll, 0, 2, kMetastreamCount},
        // TermShare owns 68 ids: 10 terms x 3 emitted + 38 reserved,
        // bringing the dynamic feature space to exactly 4,484.
        {"TermShare", S::kTermShare, T::kAll, 0, 3, kMaxQueryTerms},
    };

    std::vector<FsmDescriptor> descriptors;
    descriptors.reserve(specs.size());
    std::uint32_t next_id = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Spec& spec = specs[i];
        FsmDescriptor d;
        d.name = spec.name;
        d.source = spec.source;
        d.tuples = spec.tuples;
        d.param = spec.param;
        d.feature_base = next_id;
        d.feature_count = spec.cells * spec.values_per_cell;
        if (i + 1 == specs.size()) {
            d.feature_count = kDynamicFeatureCount - next_id;  // reserved tail
        }
        next_id += d.feature_count;
        descriptors.push_back(std::move(d));
    }
    assert(descriptors.size() == 43);
    assert(next_id == kDynamicFeatureCount);
    return descriptors;
}

/** Values per cell for a descriptor (from its allocation). */
std::uint32_t ValuesPerCell(const FsmDescriptor& d) {
    switch (d.source) {
      case EmitSource::kStreamDensity:
      case EmitSource::kStreamSpan:
        return d.feature_count / kMetastreamCount;
      case EmitSource::kTermShare:
        return 3;  // remaining ids are reserved
      default:
        return d.feature_count / (kMetastreamCount * kMaxQueryTerms);
    }
}

/** Index of the smallest bound >= value; bounds.size() if none is. */
template <std::size_t N>
std::size_t BucketOf(const std::array<std::uint32_t, N>& bounds,
                     std::uint32_t value) {
    std::size_t bucket = 0;
    for (const std::uint32_t bound : bounds) bucket += value > bound;
    return bucket;
}

/** Sum of the buckets whose bound is <= `limit`. */
template <std::size_t N>
std::uint32_t CountUpTo(const std::array<std::uint32_t, N>& bounds,
                        const std::array<std::uint32_t, N + 1>& buckets,
                        std::uint32_t limit) {
    std::uint32_t count = 0;
    for (std::size_t b = 0; b < N && bounds[b] <= limit; ++b) {
        count += buckets[b];
    }
    return count;
}

}  // namespace

const std::vector<FsmDescriptor>& FeatureExtractor::Descriptors() {
    static const std::vector<FsmDescriptor> descriptors = BuildDescriptors();
    return descriptors;
}

inline void FeatureExtractor::Consume(const HitTuple& tuple,
                                      std::uint32_t position) {
    const auto stream =
        static_cast<std::uint8_t>(tuple.stream % kMetastreamCount);
    const std::size_t c = static_cast<std::size_t>(stream) * kMaxQueryTerms +
                          tuple.term % kMaxQueryTerms;
    const std::uint32_t delta = tuple.delta;
    const std::uint32_t props = tuple.properties;
    const auto hit = [c, position](CellClass& cls) {
        if (cls.count[c]++ == 0) cls.first[c] = position;
        cls.last[c] = position;
    };

    CellClass& all = ClassOf(TupleClass::kAll);
    hit(all);
    all.max_gap[c] = std::max(all.max_gap[c], delta);
    all.sum_delta[c] += delta;
    all.max_props[c] = std::max(all.max_props[c], props);
    if (props != 0) {
        CellClass& with = ClassOf(TupleClass::kProps);
        hit(with);
        with.max_gap[c] = std::max(with.max_gap[c], delta);
        with.sum_delta[c] += delta;
        with.sum_props[c] += props;
        if (props >= kHighProperty) {
            ClassOf(TupleClass::kHigh).sum_props[c] += props;
        }
    }
    if (delta < kTightDelta) hit(ClassOf(TupleClass::kTight));

    const bool same_stream = acc_.previous_stream == stream;
    const bool next = acc_.previous_term + 1 == tuple.term;
    const bool repeat = acc_.previous_term == tuple.term;
    acc_.bigrams[kNext][c] += same_stream && next;
    acc_.bigrams[kRepeat][c] += same_stream && repeat;
    acc_.bigrams[kCrossStream][c] +=
        !same_stream && acc_.previous_stream != 0xFF && repeat;
    acc_.bigrams[kNextWithProps][c] += same_stream && next && props != 0;
    if (same_stream) ++acc_.proximity[c][BucketOf(kProximityWindows, delta)];
    ++acc_.early[c][BucketOf(kEarlyThresholds, position)];

    acc_.previous_term = tuple.term;
    acc_.previous_stream = stream;
}

void FeatureExtractor::Emit(std::uint32_t document_length,
                            FeatureStore& store) const {
    const float length = 1.0f + static_cast<float>(document_length);
    const float doc_norm = 1.0f / length;
    const CellClass& all = ClassOf(TupleClass::kAll);
    const CellClass& props = ClassOf(TupleClass::kProps);
    const CellClass& tight = ClassOf(TupleClass::kTight);
    const CellClass& high = ClassOf(TupleClass::kHigh);

    // Feature Gathering Network: each FSM's non-zero outputs, in
    // descriptor and cell order.
    for (const FsmDescriptor& d : Descriptors()) {
        const std::uint32_t vpc = ValuesPerCell(d);
        const auto emit = [&](std::size_t cell, float primary) {
            if (primary == 0.0f) return;  // §4.4: only non-zero values emitted
            const auto base =
                d.feature_base + static_cast<std::uint32_t>(cell) * vpc;
            store.Set(base, primary);
            if (vpc >= 2) store.Set(base + 1, primary * doc_norm);
            if (vpc >= 3) store.Set(base + 2, std::log1p(primary));
        };
        const auto per_cell = [&](auto&& primary_of) {
            for (std::size_t c = 0; c < kCells; ++c) emit(c, primary_of(c));
        };
        const auto as_float = [&](const auto& field) {
            per_cell([&](std::size_t c) { return static_cast<float>(field[c]); });
        };
        const CellClass& cls = ClassOf(d.tuples);

        switch (d.source) {
          case EmitSource::kCount:
            as_float(cls.count);
            break;
          case EmitSource::kFirst:
            as_float(cls.first);
            break;
          case EmitSource::kLast:
            as_float(cls.last);
            break;
          case EmitSource::kSpan:
            per_cell([&](std::size_t c) {
                return static_cast<float>(cls.last[c] - cls.first[c]);
            });
            break;
          case EmitSource::kMeanGap:
            per_cell([&](std::size_t c) {
                return cls.count[c] == 0
                           ? 0.0f
                           : static_cast<float>(cls.sum_delta[c]) /
                                 static_cast<float>(cls.count[c]);
            });
            break;
          case EmitSource::kMaxGap:
            as_float(cls.max_gap);
            break;
          case EmitSource::kPropertySum:
            as_float(cls.sum_props);
            break;
          case EmitSource::kPropertyMax:
            as_float(cls.max_props);
            break;
          case EmitSource::kWideCount:
            per_cell([&](std::size_t c) {
                return static_cast<float>(all.count[c] - tight.count[c]);
            });
            break;
          case EmitSource::kLowPropertySum:
            per_cell([&](std::size_t c) {
                return static_cast<float>(props.sum_props[c] -
                                          high.sum_props[c]);
            });
            break;
          case EmitSource::kStrongPropertyMax:
            per_cell([&](std::size_t c) {
                return all.max_props[c] >= kStrongProperty
                           ? static_cast<float>(all.max_props[c])
                           : 0.0f;
            });
            break;
          case EmitSource::kBigram:
            as_float(acc_.bigrams[d.param]);
            break;
          case EmitSource::kProximity:
            per_cell([&](std::size_t c) {
                return static_cast<float>(CountUpTo(
                    kProximityWindows, acc_.proximity[c], d.param));
            });
            break;
          case EmitSource::kEarly:
            per_cell([&](std::size_t c) {
                return static_cast<float>(
                    CountUpTo(kEarlyThresholds, acc_.early[c], d.param));
            });
            break;
          case EmitSource::kStreamDensity:
          case EmitSource::kStreamSpan:
            for (std::size_t s = 0; s < kMetastreamCount; ++s) {
                std::uint32_t hits = 0;
                std::uint64_t span = 0;
                for (std::size_t t = 0; t < kMaxQueryTerms; ++t) {
                    hits += all.count[s * kMaxQueryTerms + t];
                    span += all.sum_delta[s * kMaxQueryTerms + t];
                }
                emit(s, d.source == EmitSource::kStreamDensity
                            ? static_cast<float>(hits) / length
                            : static_cast<float>(span));
            }
            break;
          case EmitSource::kTermShare: {
            std::uint32_t total = 0;
            for (const std::uint32_t count : all.count) total += count;
            if (total == 0) break;
            for (std::size_t t = 0; t < kMaxQueryTerms; ++t) {
                std::uint32_t term_hits = 0;
                for (std::size_t s = 0; s < kMetastreamCount; ++s) {
                    term_hits += all.count[s * kMaxQueryTerms + t];
                }
                emit(t, static_cast<float>(term_hits) /
                            static_cast<float>(total));
            }
            break;
          }
        }
    }
}

void FeatureExtractor::Extract(const CompressedRequest& request,
                               FeatureStore& store) {
    // The Stream Processing FSM issues each tuple to the fused FSMs.
    acc_ = Accumulators{};
    HitVectorReader reader(request);
    HitTuple tuple;
    std::uint32_t position = 0;
    while (reader.Next(tuple)) {
        position += tuple.delta;
        Consume(tuple, position);
    }
    Emit(request.document_length, store);

    // Software-computed features ride along with the request (§4.1).
    for (const auto& feature : request.software_features) {
        store.Set(SoftwareFeatureSlot(feature.feature_id), feature.value);
    }
}

void FeatureExtractor::ExtractTuples(std::span<const HitTuple> tuples,
                                     std::uint32_t document_length,
                                     FeatureStore& store) {
    acc_ = Accumulators{};
    std::uint32_t position = 0;
    for (const HitTuple& tuple : tuples) {
        position += tuple.delta;
        Consume(tuple, position);
    }
    Emit(document_length, store);
}

}  // namespace catapult::rank
