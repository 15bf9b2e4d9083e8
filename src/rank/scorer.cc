#include "rank/scorer.h"

#include <algorithm>

namespace catapult::rank {

namespace {

/**
 * Append `tree`'s subtree at `index`, `depth` splits below the root, to
 * `out` in pre-order; raise `deepest` to the depth of each leaf.
 */
void Flatten(const DecisionTree& tree, std::int32_t index, int depth,
             std::vector<ScorerShard::Node>& out, int& deepest) {
    const TreeNode& node = tree.nodes[static_cast<std::size_t>(index)];
    const std::size_t at = out.size();
    out.push_back({node.feature,
                   node.feature == TreeNode::kLeaf ? node.leaf_value
                                                   : node.threshold,
                   0});
    if (node.feature == TreeNode::kLeaf) {
        deepest = std::max(deepest, depth);
        return;
    }
    Flatten(tree, node.left, depth + 1, out, deepest);
    out[at].right = static_cast<std::uint32_t>(out.size());
    Flatten(tree, node.right, depth + 1, out, deepest);
}

/**
 * One level of a walk: the child of split node `i` that `x` selects,
 * or `i` itself at a leaf. All-ones/zero masks stand in for the two
 * choices so the compiler emits no branch; a leaf's comparison reads
 * slot 0 and is discarded.
 */
inline std::uint32_t Step(const ScorerShard::Node* nodes, const float* x,
                          std::uint32_t i) {
    const ScorerShard::Node& node = nodes[i];
    const std::uint32_t split =
        0u - static_cast<std::uint32_t>(node.feature != TreeNode::kLeaf);
    const std::uint32_t left =
        0u - static_cast<std::uint32_t>(x[node.feature & split] <= node.value);
    const std::uint32_t child = ((i + 1) & left) | (node.right & ~left);
    return (child & split) | (i & ~split);
}

}  // namespace

ScorerShard::ScorerShard(const std::vector<DecisionTree>& trees) {
    roots_.reserve(trees.size());
    for (const DecisionTree& tree : trees) {
        roots_.push_back(static_cast<std::uint32_t>(nodes_.size()));
        if (tree.nodes.empty()) {
            nodes_.push_back({});  // an empty tree scores 0
        } else {
            Flatten(tree, 0, 0, nodes_, max_depth_);
        }
    }
}

float ScorerShard::PartialScore(const FeatureStore& store) const {
    // Pipeline-order accumulation: leaf values add in tree order so the
    // float sum is deterministic and identical to software.
    const Node* const nodes = nodes_.data();
    const float* const x = store.raw().data();
    const std::size_t trees = roots_.size();
    float sum = 0.0f;
    std::size_t t = 0;
    for (; t + kWalkWidth <= trees; t += kWalkWidth) {
        std::uint32_t at[kWalkWidth];
        for (int k = 0; k < kWalkWidth; ++k) at[k] = roots_[t + k];
        for (int level = 0; level < max_depth_; ++level) {
            for (int k = 0; k < kWalkWidth; ++k) at[k] = Step(nodes, x, at[k]);
        }
        for (int k = 0; k < kWalkWidth; ++k) sum += nodes[at[k]].value;
    }
    for (; t < trees; ++t) {
        std::uint32_t at = roots_[t];
        for (int level = 0; level < max_depth_; ++level) {
            at = Step(nodes, x, at);
        }
        sum += nodes[at].value;
    }
    return sum;
}

Time ScorerShard::ServiceTime() const {
    const std::int64_t tree_cycles =
        static_cast<std::int64_t>(
            (roots_.size() + static_cast<std::size_t>(timing_.tree_units) - 1) /
            static_cast<std::size_t>(timing_.tree_units)) *
        timing_.cycles_per_tree;
    return timing_.clock.Cycles(timing_.base_cycles + tree_cycles);
}

Bytes ScorerShard::ModelBytes() const {
    // 8 bytes per node (feature id, threshold/leaf, child offsets packed).
    return total_nodes() * 8;
}

ScoringEnsemble::ScoringEnsemble(std::vector<DecisionTree> trees) {
    // Contiguous shards preserve ensemble order across the 3 chips, so
    // Score() sums in the same order as a single-machine evaluation.
    const std::size_t per_shard = (trees.size() + kShardCount - 1) / kShardCount;
    std::size_t index = 0;
    for (int s = 0; s < kShardCount; ++s) {
        std::vector<DecisionTree> shard_trees;
        for (std::size_t k = 0; k < per_shard && index < trees.size();
             ++k, ++index) {
            shard_trees.push_back(std::move(trees[index]));
        }
        shards_[s] = ScorerShard(shard_trees);
    }
}

float ScoringEnsemble::Score(const FeatureStore& store) const {
    float score = 0.0f;
    for (const auto& shard : shards_) score += shard.PartialScore(store);
    return score;
}

int ScoringEnsemble::total_trees() const {
    int total = 0;
    for (const auto& shard : shards_) total += shard.tree_count();
    return total;
}

namespace {

/**
 * Append one random tree to `nodes` in pre-order (left child next);
 * raise `deepest` to the depth of each leaf.
 */
void BuildSubtree(std::vector<ScorerShard::Node>& nodes, Rng& rng, int depth,
                  int max_depth, const std::vector<std::uint32_t>& operands,
                  int& deepest) {
    const std::size_t index = nodes.size();
    nodes.emplace_back();
    if (depth >= max_depth || rng.Chance(0.25)) {
        nodes[index].value = static_cast<float>(rng.Uniform(-0.5, 0.5));
        deepest = std::max(deepest, depth);
        return;
    }
    nodes[index].feature = operands[rng.NextBounded(operands.size())];
    nodes[index].value = static_cast<float>(rng.Uniform(0.0, 16.0));
    BuildSubtree(nodes, rng, depth + 1, max_depth, operands, deepest);
    nodes[index].right = static_cast<std::uint32_t>(nodes.size());
    BuildSubtree(nodes, rng, depth + 1, max_depth, operands, deepest);
}

}  // namespace

ScoringEnsemble GenerateEnsemble(std::uint64_t seed, int tree_count,
                                 int max_depth, int operand_budget) {
    Rng rng(seed ^ 0x5C03E5C03E5C03E5ull);
    // Per-model feature selection: draw the operand window first, with
    // the paper's emphasis on dynamic features and FFE outputs.
    std::vector<std::uint32_t> operands;
    operands.reserve(static_cast<std::size_t>(operand_budget));
    for (int i = 0; i < operand_budget; ++i) {
        const double kind = rng.NextDouble();
        if (kind < 0.55) {
            operands.push_back(static_cast<std::uint32_t>(
                rng.NextBounded(kDynamicFeatureCount)));
        } else if (kind < 0.90) {
            operands.push_back(
                kFfeOutputBase +
                static_cast<std::uint32_t>(rng.NextBounded(kFfeOutputSlots)));
        } else {
            operands.push_back(kSoftwareFeatureBase +
                               static_cast<std::uint32_t>(
                                   rng.NextBounded(kSoftwareFeatureSlots)));
        }
    }
    // Contiguous shards, as ScoringEnsemble(trees) splits them.
    const int per_shard =
        (tree_count + ScoringEnsemble::kShardCount - 1) /
        ScoringEnsemble::kShardCount;
    std::array<std::vector<ScorerShard::Node>, ScoringEnsemble::kShardCount>
        nodes;
    std::array<std::vector<std::uint32_t>, ScoringEnsemble::kShardCount> roots;
    std::array<int, ScoringEnsemble::kShardCount> deepest{};
    for (int t = 0; t < tree_count; ++t) {
        const std::size_t s = static_cast<std::size_t>(t / per_shard);
        roots[s].push_back(static_cast<std::uint32_t>(nodes[s].size()));
        BuildSubtree(nodes[s], rng, 0, max_depth, operands, deepest[s]);
    }
    std::array<ScorerShard, ScoringEnsemble::kShardCount> shards;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        shards[s] = ScorerShard(std::move(nodes[s]), std::move(roots[s]),
                                deepest[s]);
    }
    return ScoringEnsemble(std::move(shards));
}

}  // namespace catapult::rank
