#include "reference_feature_fsm.h"

#include <cassert>
#include <cmath>

namespace catapult::rank::reference {

namespace {

/**
 * Build the 43 FSM specs. Feature ids are packed contiguously: 30 rich
 * per-(stream,term) FSMs emit 3 values per cell (primary,
 * length-normalized, log-compressed), 10 emit 2, and the 3 aggregate
 * FSMs own the tail of the id space; kTermShare's allocation includes
 * reserved ids for future term slots, so the dynamic space totals
 * exactly 4,484 features.
 */
std::vector<FsmSpec> BuildSpecs() {
    struct Row {
        FsmKind kind;
        const char* name;
        std::uint32_t param;
        std::uint32_t values_per_cell;
        std::uint32_t cells;
    };
    const std::uint32_t st = kMetastreamCount * kMaxQueryTerms;  // 40
    const std::vector<Row> rows = {
        // 30 rich per-(stream,term) FSMs, 3 values per cell.
        {FsmKind::kCountOccurrences, "NumberOfOccurrences", 0, 3, st},
        {FsmKind::kCountOccurrences, "NumberOfOccurrences.props", 1, 3, st},
        {FsmKind::kCountOccurrences, "NumberOfOccurrences.tight", 2, 3, st},
        {FsmKind::kFirstOccurrence, "FirstOccurrence", 0, 3, st},
        {FsmKind::kLastOccurrence, "LastOccurrence", 0, 3, st},
        {FsmKind::kCoverageSpan, "CoverageSpan", 0, 3, st},
        {FsmKind::kMeanGap, "MeanGap", 0, 3, st},
        {FsmKind::kMaxGap, "MaxGap", 0, 3, st},
        {FsmKind::kPropertySum, "PropertySum", 0, 3, st},
        {FsmKind::kPropertySum, "PropertySum.high", 1, 3, st},
        {FsmKind::kPropertyMax, "PropertyMax", 0, 3, st},
        {FsmKind::kBigramAdjacency, "BigramNext", 0, 3, st},
        {FsmKind::kBigramAdjacency, "BigramRepeat", 1, 3, st},
        {FsmKind::kBigramAdjacency, "BigramCrossStream", 2, 3, st},
        {FsmKind::kProximityWindow, "Proximity.8", 8, 3, st},
        {FsmKind::kProximityWindow, "Proximity.16", 16, 3, st},
        {FsmKind::kProximityWindow, "Proximity.32", 32, 3, st},
        {FsmKind::kProximityWindow, "Proximity.64", 64, 3, st},
        {FsmKind::kProximityWindow, "Proximity.128", 128, 3, st},
        {FsmKind::kProximityWindow, "Proximity.256", 256, 3, st},
        {FsmKind::kProximityWindow, "Proximity.512", 512, 3, st},
        {FsmKind::kProximityWindow, "Proximity.1024", 1024, 3, st},
        {FsmKind::kEarlySection, "Early.128", 128, 3, st},
        {FsmKind::kEarlySection, "Early.512", 512, 3, st},
        {FsmKind::kEarlySection, "Early.2048", 2048, 3, st},
        {FsmKind::kEarlySection, "Early.8192", 8192, 3, st},
        {FsmKind::kEarlySection, "Early.32768", 32768, 3, st},
        {FsmKind::kFirstOccurrence, "FirstOccurrence.props", 1, 3, st},
        {FsmKind::kLastOccurrence, "LastOccurrence.props", 1, 3, st},
        {FsmKind::kMaxGap, "MaxGap.props", 1, 3, st},
        // 10 per-(stream,term) FSMs, 2 values per cell.
        {FsmKind::kCountOccurrences, "NumberOfOccurrences.wide", 3, 2, st},
        {FsmKind::kFirstOccurrence, "FirstOccurrence.tight", 2, 2, st},
        {FsmKind::kLastOccurrence, "LastOccurrence.tight", 2, 2, st},
        {FsmKind::kCoverageSpan, "CoverageSpan.props", 1, 2, st},
        {FsmKind::kMeanGap, "MeanGap.props", 1, 2, st},
        {FsmKind::kPropertySum, "PropertySum.low", 2, 2, st},
        {FsmKind::kPropertyMax, "PropertyMax.props", 1, 2, st},
        {FsmKind::kBigramAdjacency, "BigramNext.props", 3, 2, st},
        {FsmKind::kProximityWindow, "Proximity.4096", 4096, 2, st},
        {FsmKind::kEarlySection, "Early.131072", 131072, 2, st},
        // Aggregate FSMs.
        {FsmKind::kDensity, "StreamDensity", 0, 2, kMetastreamCount},
        {FsmKind::kStreamSpan, "StreamSpan", 0, 2, kMetastreamCount},
        // kTermShare owns 68 ids: 10 terms x 3 emitted + 38 reserved,
        // bringing the dynamic feature space to exactly 4,484.
        {FsmKind::kTermShare, "TermShare", 0, 3, kMaxQueryTerms},
    };

    std::vector<FsmSpec> specs;
    std::uint32_t next_id = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        FsmSpec spec{row.kind, row.name, row.param, next_id,
                     row.cells * row.values_per_cell};
        if (i + 1 == rows.size()) {
            spec.feature_count = kDynamicFeatureCount - next_id;  // reserved tail
        }
        next_id += spec.feature_count;
        specs.push_back(std::move(spec));
    }
    assert(specs.size() == 43);
    assert(next_id == kDynamicFeatureCount);
    return specs;
}

/** Values per cell for an FSM (from its allocation). */
std::uint32_t ValuesPerCell(const FsmSpec& spec) {
    switch (spec.kind) {
      case FsmKind::kDensity:
      case FsmKind::kStreamSpan:
        return spec.feature_count / kMetastreamCount;
      case FsmKind::kTermShare:
        return 3;  // remaining ids are reserved
      default:
        return spec.feature_count / (kMetastreamCount * kMaxQueryTerms);
    }
}

}  // namespace

const std::vector<FsmSpec>& Specs() {
    static const std::vector<FsmSpec> specs = BuildSpecs();
    return specs;
}

void FeatureFsm::Consume(const HitTuple& tuple, std::uint32_t position) {
    const int stream = tuple.stream % kMetastreamCount;
    const int term = tuple.term % kMaxQueryTerms;
    Cell& cell = cells_[static_cast<std::size_t>(stream) * kMaxQueryTerms +
                        static_cast<std::size_t>(term)];
    ++total_hits_;
    ++stream_totals_[static_cast<std::size_t>(stream)];

    // Kind-specific filters decide whether this tuple "counts".
    bool counts = true;
    std::uint32_t value = 1;
    switch (spec_.kind) {
      case FsmKind::kCountOccurrences:
        if (spec_.param == 1) counts = tuple.properties != 0;
        else if (spec_.param == 2) counts = tuple.delta < 4;
        else if (spec_.param == 3) counts = tuple.delta >= 4;
        break;
      case FsmKind::kFirstOccurrence:
      case FsmKind::kLastOccurrence:
      case FsmKind::kCoverageSpan:
        if (spec_.param == 1) counts = tuple.properties != 0;
        else if (spec_.param == 2) counts = tuple.delta < 4;
        value = position;
        break;
      case FsmKind::kMeanGap:
        if (spec_.param == 1) counts = tuple.properties != 0;
        value = tuple.delta;
        break;
      case FsmKind::kMaxGap:
        if (spec_.param == 1) counts = tuple.properties != 0;
        value = tuple.delta;
        break;
      case FsmKind::kPropertySum:
        if (spec_.param == 1) counts = tuple.properties >= 256;
        else if (spec_.param == 2) {
            counts = tuple.properties > 0 && tuple.properties < 256;
        } else {
            counts = tuple.properties != 0;
        }
        value = tuple.properties;
        break;
      case FsmKind::kPropertyMax:
        if (spec_.param == 1) counts = tuple.properties >= 16;
        value = tuple.properties;
        break;
      case FsmKind::kBigramAdjacency:
        switch (spec_.param) {
          case 0:
            counts = previous_stream_ == stream &&
                     previous_term_ + 1 == tuple.term;
            break;
          case 1:
            counts = previous_stream_ == stream && previous_term_ == tuple.term;
            break;
          case 2:
            counts = previous_stream_ != stream &&
                     previous_stream_ != 0xFF && previous_term_ == tuple.term;
            break;
          default:
            counts = previous_stream_ == stream &&
                     previous_term_ + 1 == tuple.term && tuple.properties != 0;
            break;
        }
        break;
      case FsmKind::kProximityWindow:
        counts = previous_stream_ == stream && tuple.delta <= spec_.param;
        break;
      case FsmKind::kEarlySection:
        counts = position <= spec_.param;
        break;
      case FsmKind::kDensity:
      case FsmKind::kStreamSpan:
        value = tuple.delta;
        break;
      case FsmKind::kTermShare:
        break;
    }

    if (counts) {
        ++cell.count;
        if (cell.count == 1) cell.first = position;
        cell.last = position;
        cell.sum += value;
        if (value > cell.max) cell.max = value;
        if (tuple.delta > cell.max_gap) cell.max_gap = tuple.delta;
    }

    previous_term_ = tuple.term;
    previous_stream_ = static_cast<std::uint8_t>(stream);
}

void FeatureFsm::Emit(std::uint32_t document_length,
                      FeatureStore& store) const {
    const std::uint32_t vpc = ValuesPerCell(spec_);
    const float doc_norm = 1.0f / (1.0f + static_cast<float>(document_length));

    auto emit_cell = [&](std::uint32_t cell_index, float primary) {
        if (primary == 0.0f) return;  // §4.4: only non-zero values emitted
        const std::uint32_t base = spec_.feature_base + cell_index * vpc;
        store.Set(base, primary);
        if (vpc >= 2) store.Set(base + 1, primary * doc_norm);
        if (vpc >= 3) store.Set(base + 2, std::log1p(primary));
    };

    switch (spec_.kind) {
      case FsmKind::kDensity:
        for (int s = 0; s < kMetastreamCount; ++s) {
            const auto hits = stream_totals_[static_cast<std::size_t>(s)];
            emit_cell(static_cast<std::uint32_t>(s),
                      static_cast<float>(hits) /
                          (1.0f + static_cast<float>(document_length)));
        }
        return;
      case FsmKind::kStreamSpan: {
        for (int s = 0; s < kMetastreamCount; ++s) {
            // Span accumulated in the per-stream cells' sums.
            std::uint64_t span = 0;
            for (int t = 0; t < kMaxQueryTerms; ++t) {
                span += cells_[static_cast<std::size_t>(s) * kMaxQueryTerms +
                               static_cast<std::size_t>(t)].sum;
            }
            emit_cell(static_cast<std::uint32_t>(s), static_cast<float>(span));
        }
        return;
      }
      case FsmKind::kTermShare: {
        if (total_hits_ == 0) return;
        for (int t = 0; t < kMaxQueryTerms; ++t) {
            std::uint32_t term_hits = 0;
            for (int s = 0; s < kMetastreamCount; ++s) {
                term_hits +=
                    cells_[static_cast<std::size_t>(s) * kMaxQueryTerms +
                           static_cast<std::size_t>(t)].count;
            }
            emit_cell(static_cast<std::uint32_t>(t),
                      static_cast<float>(term_hits) /
                          static_cast<float>(total_hits_));
        }
        return;
      }
      default:
        break;
    }

    for (std::uint32_t cell_index = 0; cell_index < cells_.size();
         ++cell_index) {
        const Cell& cell = cells_[cell_index];
        if (cell.count == 0) continue;
        float primary = 0.0f;
        switch (spec_.kind) {
          case FsmKind::kCountOccurrences:
          case FsmKind::kBigramAdjacency:
          case FsmKind::kProximityWindow:
          case FsmKind::kEarlySection:
            primary = static_cast<float>(cell.count);
            break;
          case FsmKind::kFirstOccurrence:
            primary = static_cast<float>(cell.first);
            break;
          case FsmKind::kLastOccurrence:
            primary = static_cast<float>(cell.last);
            break;
          case FsmKind::kCoverageSpan:
            primary = static_cast<float>(cell.last - cell.first);
            break;
          case FsmKind::kMeanGap:
            primary = static_cast<float>(cell.sum) /
                      static_cast<float>(cell.count);
            break;
          case FsmKind::kMaxGap:
            primary = static_cast<float>(cell.max_gap);
            break;
          case FsmKind::kPropertySum:
            primary = static_cast<float>(cell.sum);
            break;
          case FsmKind::kPropertyMax:
            primary = static_cast<float>(cell.max);
            break;
          default:
            break;
        }
        emit_cell(cell_index, primary);
    }
}

void ExtractTuples(std::span<const HitTuple> tuples,
                   std::uint32_t document_length, FeatureStore& store) {
    std::vector<FeatureFsm> fsms;
    for (const FsmSpec& spec : Specs()) fsms.emplace_back(spec);
    std::uint32_t position = 0;
    for (const HitTuple& tuple : tuples) {
        position += tuple.delta;
        for (FeatureFsm& fsm : fsms) fsm.Consume(tuple, position);
    }
    for (const FeatureFsm& fsm : fsms) fsm.Emit(document_length, store);
}

void Extract(const CompressedRequest& request, FeatureStore& store) {
    std::vector<HitTuple> tuples;
    HitVectorReader reader(request);
    HitTuple tuple;
    while (reader.Next(tuple)) tuples.push_back(tuple);
    ExtractTuples(tuples, request.document_length, store);
    for (const auto& feature : request.software_features) {
        store.Set(SoftwareFeatureSlot(feature.feature_id), feature.value);
    }
}

}  // namespace catapult::rank::reference
