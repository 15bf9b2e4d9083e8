// Document scoring (§4.6): the machine-learned model evaluator.
//
// "The last stage of the pipeline is a machine learned model evaluator
// which takes the features and free form expressions as inputs and
// produces a single floating-point score." Bing-era rankers were
// boosted-tree ensembles; the evaluator here is an additive ensemble of
// depth-limited binary decision trees over the feature store, split
// across the three scoring FPGAs (Table 1: Scr0-2) which each evaluate
// a shard of the trees and accumulate partial sums down the pipeline.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "rank/feature_space.h"

namespace catapult::rank {

/** One node of a decision tree as built (leaf when feature == kLeaf). */
struct TreeNode {
    static constexpr std::uint32_t kLeaf = 0xFFFFFFFFu;
    std::uint32_t feature = kLeaf;
    float threshold = 0.0f;  ///< go left when value <= threshold
    float leaf_value = 0.0f;
    std::int32_t left = -1;
    std::int32_t right = -1;
};

/**
 * A single regression tree in build form: a node array with explicit
 * child links, root at index 0. ScorerShard flattens it for scoring.
 */
struct DecisionTree {
    std::vector<TreeNode> nodes;

    int NodeCount() const { return static_cast<int>(nodes.size()); }
};

/**
 * One scoring stage's shard of the ensemble, stored as a single
 * pre-order node array: a split node's left child is the next node and
 * `right` indexes its right child, so a walk touches one contiguous
 * array instead of one allocation per tree.
 *
 * The host walks the trees as the chip's parallel tree pipelines do
 * (Timing::tree_units): kWalkWidth trees at a time, each advanced one
 * level per step for the shard's deepest root-to-leaf path. A step is
 * branch-free (integer masks pick the child; a tree already at its
 * leaf stays there), so no split costs a mispredicted branch. Leaf
 * values are then added in tree order, and trees past the last full
 * block take the same steps one at a time, so the float sum is the
 * one a tree-by-tree walk gives, bit for bit. A NaN feature fails
 * `value <= threshold` and goes right, as in a tree-by-tree walk.
 */
class ScorerShard {
  public:
    struct Timing {
        Frequency clock = Frequency::MHz(166.0);  ///< Table 1 (Scr0-2).
        /** Parallel tree-evaluation pipelines per chip. */
        int tree_units = 8;
        /** Cycles per tree per unit (pipelined traversal). */
        int cycles_per_tree = 2;
        /** Fixed cycles: partial-sum accumulate, forwarding. */
        std::int64_t base_cycles = 120;
    };

    /** Flat node: a split on `feature`, or a leaf scoring `value`. */
    struct Node {
        std::uint32_t feature = TreeNode::kLeaf;
        float value = 0.0f;       ///< Split threshold, or leaf value.
        std::uint32_t right = 0;  ///< Right child index (split nodes).
    };

    /** Trees walked together by PartialScore. */
    static constexpr int kWalkWidth = 16;

    ScorerShard() = default;
    /** Flatten build-form trees, in order. */
    explicit ScorerShard(const std::vector<DecisionTree>& trees);
    /**
     * Adopt a flat pre-order array; `roots` holds each tree's first
     * node and `max_depth` is the longest root-to-leaf path, in splits.
     */
    ScorerShard(std::vector<Node> nodes, std::vector<std::uint32_t> roots,
                int max_depth)
        : nodes_(std::move(nodes)),
          roots_(std::move(roots)),
          max_depth_(max_depth) {}

    /** Partial score: sum of this shard's tree outputs, in tree order. */
    float PartialScore(const FeatureStore& store) const;

    /** Stage service time for one document. */
    Time ServiceTime() const;

    /** Model memory footprint (drives Model Reload cost, §4.3). */
    Bytes ModelBytes() const;

    int tree_count() const { return static_cast<int>(roots_.size()); }
    std::int64_t total_nodes() const {
        return static_cast<std::int64_t>(nodes_.size());
    }
    const std::vector<Node>& nodes() const { return nodes_; }
    const std::vector<std::uint32_t>& roots() const { return roots_; }
    /** Splits on the longest root-to-leaf path (steps per walk). */
    int max_depth() const { return max_depth_; }
    Timing& timing() { return timing_; }
    const Timing& timing() const { return timing_; }

  private:
    std::vector<Node> nodes_;
    std::vector<std::uint32_t> roots_;  ///< First node of each tree.
    int max_depth_ = 0;
    Timing timing_;
};

/**
 * The full ensemble: shards for the three scoring FPGAs. The final
 * score is the sum of all shard partials (bit-identical regardless of
 * shard boundaries because partial sums accumulate in pipeline order).
 */
class ScoringEnsemble {
  public:
    static constexpr int kShardCount = 3;

    ScoringEnsemble() = default;
    explicit ScoringEnsemble(std::vector<DecisionTree> trees);
    explicit ScoringEnsemble(std::array<ScorerShard, kShardCount> shards)
        : shards_(std::move(shards)) {}

    /** Full score: evaluate all shards in pipeline order. */
    float Score(const FeatureStore& store) const;

    const ScorerShard& shard(int i) const { return shards_[i]; }
    ScorerShard& shard(int i) { return shards_[i]; }
    int total_trees() const;

  private:
    std::array<ScorerShard, kShardCount> shards_;
};

/**
 * Synthesize a random ensemble for a model seed. Trees draw their split
 * features from a per-model operand window of `operand_budget` distinct
 * feature slots (models use feature subsets; this is what keeps the
 * compression stage's output — the operand set — small enough to stream
 * between the scoring chips within the macropipeline budget).
 */
ScoringEnsemble GenerateEnsemble(std::uint64_t seed, int tree_count,
                                 int max_depth = 6,
                                 int operand_budget = 4'000);

}  // namespace catapult::rank
