// Ranking request model: queries, hit vectors, compressed requests.
//
// §4.1: each encoded {document, query} request contains (i) a header
// with basic request parameters, (ii) the set of software-computed
// features, and (iii) the hit vector of query match locations for each
// of the document's metastreams. "Software computed features and hit
// vector tuples are encoded in three different sizes using two, four,
// or six bytes depending on the query term." Requests are truncated to
// 64 KB to fit the slot DMA interface.
//
// Documents are synthesized deterministically from a seed: the tuple
// stream is generated lazily by HitVectorReader so multi-hundred-
// thousand-document corpora do not hold materialized tuple arrays.

#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace catapult::rank {

/** Maximum compressed request size (slot size, §4.1). */
inline constexpr Bytes kMaxCompressedBytes = 64 * 1024;

/** Number of metastreams a document is split into (§4: "several"). */
inline constexpr int kMetastreamCount = 4;

/** Maximum query terms tracked by the feature state machines. */
inline constexpr int kMaxQueryTerms = 10;

/** A search query heading to the ranking service. */
struct Query {
    std::uint64_t query_id = 0;
    std::uint32_t model_id = 0;  ///< Model selection (language/experiment).
    int term_count = 1;          ///< 1 .. kMaxQueryTerms.

    // Distributed-tracing context, carried piggyback because requests
    // are copied along the whole query path (scatter shard -> dispatcher
    // -> cross-shard mailbox -> pod ring). Plain ids, no obs-layer
    // dependency; 0 = untraced. Not part of the §4.1 wire format —
    // EncodedSize()/RequestCodec ignore them.
    std::uint64_t obs_trace = 0;   ///< Timeline (trace) id.
    std::uint64_t obs_parent = 0;  ///< Parent span id for the next hop.
};

/**
 * One hit-vector tuple (§4): "Each tuple describes the relative offset
 * from the previous tuple (or start of stream), the matching query
 * term, and a number of other properties."
 */
struct HitTuple {
    std::uint32_t delta = 0;      ///< Offset from previous tuple.
    std::uint8_t term = 0;        ///< Matching query term index.
    std::uint8_t stream = 0;      ///< Metastream this hit belongs to.
    std::uint16_t properties = 0; ///< Misc properties (weight class etc.).

    /** Wire size: 2, 4 or 6 bytes depending on magnitude (§4.1). */
    int EncodedSize() const;

    bool operator==(const HitTuple&) const = default;
};

/** A software-computed feature forwarded with the request (§4.1). */
struct SoftwareFeature {
    std::uint16_t feature_id = 0;
    float value = 0.0f;

    bool operator==(const SoftwareFeature&) const = default;
};

/**
 * The compressed {document, query} request as injected into the fabric.
 *
 * Tuple content is reproducible from (doc_id, content_seed): callers
 * stream tuples through HitVectorReader instead of materializing them.
 */
struct CompressedRequest {
    std::uint64_t doc_id = 0;
    Query query;
    std::uint64_t content_seed = 0;
    std::uint32_t tuple_count = 0;      ///< Across all metastreams.
    std::uint32_t document_length = 0;  ///< In tokens, for the header.
    std::vector<SoftwareFeature> software_features;
    bool truncated = false;  ///< Hit the 64 KB cap (§4.1).

    /**
     * On-wire size used by the transport models. Set by the generator
     * from its per-tuple byte budget; EncodedSize() is the exact value
     * and tests assert the two agree closely.
     */
    Bytes wire_bytes = 0;

    /** Exact encoded size in bytes (header + features + hit vector). */
    Bytes EncodedSize() const;

    /** Header size on the wire. */
    static Bytes HeaderSize();
};

/**
 * Streams the hit-vector tuples of a request deterministically.
 * Iterating twice over the same request yields identical tuples, which
 * is what makes FPGA-path and software-path scores bit-identical.
 */
class HitVectorReader {
  public:
    explicit HitVectorReader(const CompressedRequest& request);

    /** False when the stream is exhausted. */
    bool Next(HitTuple& tuple);

    std::uint32_t produced() const { return produced_; }

  private:
    const CompressedRequest& request_;
    Rng rng_;
    std::uint32_t produced_ = 0;
};

/**
 * Byte-level encoder/decoder for requests, validating the wire format
 * (2/4/6-byte tuples; header; feature pairs). The simulator proper
 * tracks only sizes, but tests round-trip real bytes through this.
 */
class RequestCodec {
  public:
    /** Serialize `request`, materializing tuples from the seed. */
    static std::vector<std::uint8_t> Encode(const CompressedRequest& request);

    /**
     * Decode bytes back into a request plus materialized tuples.
     * Returns false on malformed input.
     */
    static bool Decode(const std::vector<std::uint8_t>& bytes,
                       CompressedRequest& request,
                       std::vector<HitTuple>& tuples);
};

}  // namespace catapult::rank
