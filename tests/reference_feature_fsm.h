// Test-only reference model of the Feature Extraction stage (§4.4):
// the 43 feature state machines run literally, one object per FSM,
// each with its own 40-cell state and its own per-tuple switch over
// (kind, param) that decides a filter and a value. This is how the
// extractor ran before its FSMs were fused into one pass over shared
// accumulator classes. The differential tests in
// test_feature_extraction.cc compare the fused extractor with it bit
// for bit.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rank/document.h"
#include "rank/feature_space.h"

namespace catapult::rank::reference {

/** Identifies one of the 43 FSM computation kinds. */
enum class FsmKind : std::uint8_t {
    kCountOccurrences,   ///< Hits per (stream, term).
    kFirstOccurrence,    ///< Position of first hit per (stream, term).
    kLastOccurrence,     ///< Position of last hit per (stream, term).
    kCoverageSpan,       ///< last - first per (stream, term).
    kMeanGap,            ///< Mean delta between hits per (stream, term).
    kMaxGap,             ///< Largest delta per (stream, term).
    kPropertySum,        ///< Sum of tuple properties per (stream, term).
    kPropertyMax,        ///< Max property per (stream, term).
    kBigramAdjacency,    ///< term t directly followed by t+1 (stream, term).
    kProximityWindow,    ///< Hits within a window of the previous hit.
    kEarlySection,       ///< Hits before a position threshold.
    kDensity,            ///< Hits / document length per stream.
    kStreamSpan,         ///< Total advance per stream.
    kTermShare,          ///< Term's share of all hits (per term).
};

/** Static descriptor for one FSM instance. */
struct FsmSpec {
    FsmKind kind;
    std::string name;
    /** Variant parameter (filter, window size, position threshold). */
    std::uint32_t param = 0;
    /** First feature id owned by this FSM. */
    std::uint32_t feature_base = 0;
    /** Number of feature ids owned. */
    std::uint32_t feature_count = 0;
};

/** The 43 FSMs with their packed feature ids. */
const std::vector<FsmSpec>& Specs();

/**
 * One streaming feature state machine. Consume() is called once per
 * tuple in stream order; Emit() writes the non-zero results.
 */
class FeatureFsm {
  public:
    explicit FeatureFsm(const FsmSpec& spec) : spec_(spec) {}

    void Consume(const HitTuple& tuple, std::uint32_t position);
    void Emit(std::uint32_t document_length, FeatureStore& store) const;

  private:
    struct Cell {
        std::uint32_t count = 0;
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        std::uint32_t max_gap = 0;
        std::uint64_t sum = 0;
        std::uint32_t max = 0;
    };

    FsmSpec spec_;
    std::array<Cell, kMetastreamCount * kMaxQueryTerms> cells_{};
    std::array<std::uint32_t, kMetastreamCount> stream_totals_{};
    std::uint32_t total_hits_ = 0;
    std::uint8_t previous_term_ = 0xFF;
    std::uint8_t previous_stream_ = 0xFF;
};

/** All 43 FSMs over an explicit tuple stream; dynamic features only. */
void ExtractTuples(std::span<const HitTuple> tuples,
                   std::uint32_t document_length, FeatureStore& store);

/** All 43 FSMs over a request's hit vector, plus its software features. */
void Extract(const CompressedRequest& request, FeatureStore& store);

}  // namespace catapult::rank::reference
