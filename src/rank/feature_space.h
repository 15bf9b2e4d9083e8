// Feature id space shared by all pipeline stages.
//
// §4.4: the 43 feature-extraction state machines produce "up to 4,484
// features"; software-computed features arrive with the request (§4.1);
// FFE metafeatures are intermediate results passed between the two FFE
// chips (§4.5). All three classes live in one dense id space so the
// Feature Storage Tile (FST) can be modelled as a flat array.

#pragma once

#include <cstdint>
#include <vector>

namespace catapult::rank {

/** Dynamic (FE-computed) features: ids [0, kDynamicFeatureCount). */
inline constexpr std::uint32_t kDynamicFeatureCount = 4'484;

/** Software-computed features are remapped into this window. */
inline constexpr std::uint32_t kSoftwareFeatureBase = kDynamicFeatureCount;
inline constexpr std::uint32_t kSoftwareFeatureSlots = 1'024;

/** Metafeatures produced by upstream FFE chips (§4.5). */
inline constexpr std::uint32_t kMetaFeatureBase =
    kSoftwareFeatureBase + kSoftwareFeatureSlots;
inline constexpr std::uint32_t kMetaFeatureSlots = 4'096;

/** FFE final outputs (inputs to document scoring). */
inline constexpr std::uint32_t kFfeOutputBase =
    kMetaFeatureBase + kMetaFeatureSlots;
inline constexpr std::uint32_t kFfeOutputSlots = 4'096;

/** Total FST capacity in feature slots. */
inline constexpr std::uint32_t kFeatureUniverse =
    kFfeOutputBase + kFfeOutputSlots;

/** Wire id -> FST slot for software features (wire ids start at 60000). */
inline constexpr std::uint32_t kSoftwareFeatureWireBase = 60'000;

inline std::uint32_t SoftwareFeatureSlot(std::uint16_t wire_id) {
    return kSoftwareFeatureBase +
           (static_cast<std::uint32_t>(wire_id) - kSoftwareFeatureWireBase) %
               kSoftwareFeatureSlots;
}

/**
 * The Feature Storage Tile: dense feature value array, double-buffered
 * in hardware (§4.5) so one document loads while another processes.
 */
class FeatureStore {
  public:
    FeatureStore() : values_(kFeatureUniverse, 0.0f) {}

    float Get(std::uint32_t id) const { return values_[id]; }
    void Set(std::uint32_t id, float value) { values_[id] = value; }

    void Clear() { values_.assign(values_.size(), 0.0f); }

    /** Count of non-zero entries (what FE actually emits, §4.4). */
    std::size_t NonZeroCount() const {
        std::size_t count = 0;
        for (const float v : values_) {
            if (v != 0.0f) ++count;
        }
        return count;
    }

    const std::vector<float>& raw() const { return values_; }
    float* data() { return values_.data(); }

  private:
    std::vector<float> values_;
};

}  // namespace catapult::rank
