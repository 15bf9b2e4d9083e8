// Feature Extraction (FE) stage (§4.4).
//
// "We currently implement 43 unique feature extraction state machines,
// with up to 4,484 features calculated ... Each state machine reads the
// stream of tuples one at a time and performs a local calculation ...
// At the end of a stream, the state machine outputs all non-zero
// feature values." The 43 FSMs run in parallel on the same input stream
// (MISD), fed by a Stream Processing FSM and drained by a Feature
// Gathering Network; inputs are double-buffered.
//
// The host model fuses the 43 FSMs into one pass. Most of them differ
// only in which tuples they count (their filter) and which value of a
// (count, first, last, gap, property) cell they report, and many share
// a filter. So the pass tests each tuple's predicates once and updates
// a few shared per-(stream, term) accumulator classes: all tuples,
// props != 0, delta < 4 and props >= 256, plus bigram counters and
// proximity / early-section bucket counters. At end of stream each
// FSM's descriptor names the accumulator field or derivation it emits
// (its EmitSource). Every accumulator is an exact integer, and each
// feature is converted to float by the same expression over the same
// integer as a separate FSM would use, so the features are bit-identical
// to 43 separate machines. The same code runs in the simulated FPGA
// role and in the software baseline, which is what makes the two
// paths' scores identical (§4). Timing-wise, the stage cost is the
// stream issue rate (the FSMs themselves keep up at 1-2 cycles per
// token because they run in parallel).

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "rank/document.h"
#include "rank/feature_space.h"

namespace catapult::rank {

/** The per-(stream, term) accumulator class an FSM reads: its filter. */
enum class TupleClass : std::uint8_t {
    kAll,    ///< Every tuple.
    kProps,  ///< properties != 0.
    kTight,  ///< delta < 4.
    kHigh,   ///< properties >= 256.
};

/** What an FSM emits per cell, read from the fused accumulators. */
enum class EmitSource : std::uint8_t {
    // Fields of the descriptor's TupleClass.
    kCount,        ///< Tuples in the class.
    kFirst,        ///< Position of the class's first tuple.
    kLast,         ///< Position of its last tuple.
    kSpan,         ///< last - first.
    kMeanGap,      ///< Sum of deltas / count.
    kMaxGap,       ///< Largest delta.
    kPropertySum,  ///< Sum of properties.
    kPropertyMax,  ///< Largest property.
    // Derived at Emit, with no per-tuple work.
    kWideCount,          ///< All minus tight: delta >= 4.
    kLowPropertySum,     ///< Props minus high: 0 < properties < 256.
    kStrongPropertyMax,  ///< All-tuples max if >= 16, else 0.
    // Separate counters, keyed by the descriptor's param.
    kBigram,     ///< Bigram relation `param` with the previous tuple.
    kProximity,  ///< Same-stream hits with delta <= window `param`.
    kEarly,      ///< Hits at position <= threshold `param`.
    // Per-stream and per-term aggregates of the all-tuples class.
    kStreamDensity,  ///< Hits / document length per stream.
    kStreamSpan,     ///< Total advance per stream.
    kTermShare,      ///< Term's share of all hits.
};

/** Static descriptor for one of the 43 FSMs. */
struct FsmDescriptor {
    std::string name;
    EmitSource source = EmitSource::kCount;
    /** Class the source's fields come from (kAll for the others). */
    TupleClass tuples = TupleClass::kAll;
    /** Bigram relation, proximity window or early threshold. */
    std::uint32_t param = 0;
    /** First feature id owned by this FSM. */
    std::uint32_t feature_base = 0;
    /** Number of feature ids owned. */
    std::uint32_t feature_count = 0;
};

/**
 * The complete FE stage: stream processor, the 43 FSMs as one fused
 * pass, and the gathering network. Holds one document's accumulators,
 * so each RankingFunction owns its own extractor.
 */
class FeatureExtractor {
  public:
    /**
     * The stage's Table 1 timing constants. Model::StageServiceTime
     * turns them into the per-document FE stage time.
     */
    struct Timing {
        Frequency clock = Frequency::MHz(150.0);  ///< Table 1.
        /** Fixed cycles: header parse, FST swap, gather drain. */
        std::int64_t base_cycles = 250;
        /**
         * Effective issue cycles per hit-vector tuple. The Stream
         * Processing FSM dispatches tokens to all 43 FSMs in parallel
         * (MISD), so the effective per-tuple rate is sub-cycle.
         */
        double cycles_per_tuple = 0.5;
    };

    /** The 43 FSM descriptors (§4.4). */
    static const std::vector<FsmDescriptor>& Descriptors();

    /**
     * Run the full extraction for a request: streams every tuple
     * through the fused FSMs and writes non-zero features + remapped
     * software features into `store`.
     */
    void Extract(const CompressedRequest& request, FeatureStore& store);

    /**
     * The same pass over an explicit tuple stream, for a document of
     * `document_length` tokens. Writes dynamic features only.
     */
    void ExtractTuples(std::span<const HitTuple> tuples,
                       std::uint32_t document_length, FeatureStore& store);

  private:
    static constexpr std::size_t kCells = kMetastreamCount * kMaxQueryTerms;
    /** Proximity windows and early thresholds, ascending (§4.4 params). */
    static constexpr std::array<std::uint32_t, 9> kProximityWindows = {
        8, 16, 32, 64, 128, 256, 512, 1024, 4096};
    static constexpr std::array<std::uint32_t, 6> kEarlyThresholds = {
        128, 512, 2048, 8192, 32768, 131072};
    static_assert(std::is_sorted(kProximityWindows.begin(),
                                 kProximityWindows.end()));
    static_assert(std::is_sorted(kEarlyThresholds.begin(),
                                 kEarlyThresholds.end()));

    /** One accumulator class as SoA over the 40 (stream, term) cells. */
    struct CellClass {
        std::array<std::uint32_t, kCells> count;
        std::array<std::uint32_t, kCells> first;
        std::array<std::uint32_t, kCells> last;
        std::array<std::uint32_t, kCells> max_gap;
        std::array<std::uint32_t, kCells> max_props;
        std::array<std::uint64_t, kCells> sum_delta;
        std::array<std::uint64_t, kCells> sum_props;
    };

    /**
     * One document's state. A tuple lands in the proximity bucket of
     * the smallest window >= its delta and the early bucket of the
     * smallest threshold >= its position; the last bucket of each is
     * "beyond every bound". Emit takes prefix sums.
     */
    struct Accumulators {
        std::array<CellClass, 4> classes;  ///< Indexed by TupleClass.
        std::array<std::array<std::uint32_t, kCells>, 4> bigrams;
        std::array<std::array<std::uint32_t, kProximityWindows.size() + 1>,
                   kCells> proximity;
        std::array<std::array<std::uint32_t, kEarlyThresholds.size() + 1>,
                   kCells> early;
        std::uint8_t previous_term = 0xFF;
        std::uint8_t previous_stream = 0xFF;
    };

    CellClass& ClassOf(TupleClass tuples) {
        return acc_.classes[static_cast<std::size_t>(tuples)];
    }
    const CellClass& ClassOf(TupleClass tuples) const {
        return acc_.classes[static_cast<std::size_t>(tuples)];
    }
    void Consume(const HitTuple& tuple, std::uint32_t position);
    void Emit(std::uint32_t document_length, FeatureStore& store) const;

    Accumulators acc_{};
};

}  // namespace catapult::rank
