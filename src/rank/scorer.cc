#include "rank/scorer.h"

namespace catapult::rank {

namespace {

/** Append `tree`'s subtree at `index` to `out` in pre-order. */
void Flatten(const DecisionTree& tree, std::int32_t index,
             std::vector<ScorerShard::Node>& out) {
    const TreeNode& node = tree.nodes[static_cast<std::size_t>(index)];
    const std::size_t at = out.size();
    out.push_back({node.feature,
                   node.feature == TreeNode::kLeaf ? node.leaf_value
                                                   : node.threshold,
                   0});
    if (node.feature == TreeNode::kLeaf) return;
    Flatten(tree, node.left, out);
    out[at].right = static_cast<std::uint32_t>(out.size());
    Flatten(tree, node.right, out);
}

}  // namespace

ScorerShard::ScorerShard(const std::vector<DecisionTree>& trees) {
    roots_.reserve(trees.size());
    for (const DecisionTree& tree : trees) {
        roots_.push_back(static_cast<std::uint32_t>(nodes_.size()));
        if (tree.nodes.empty()) {
            nodes_.push_back({});  // an empty tree scores 0
        } else {
            Flatten(tree, 0, nodes_);
        }
    }
}

float ScorerShard::PartialScore(const FeatureStore& store) const {
    // Pipeline-order accumulation: trees evaluate in array order so the
    // float sum is deterministic and identical to software.
    const Node* const nodes = nodes_.data();
    float sum = 0.0f;
    for (const std::uint32_t root : roots_) {
        std::uint32_t i = root;
        while (nodes[i].feature != TreeNode::kLeaf) {
            i = store.Get(nodes[i].feature) <= nodes[i].value ? i + 1
                                                              : nodes[i].right;
        }
        sum += nodes[i].value;
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

/** Append one random tree to `nodes` in pre-order (left child next). */
void BuildSubtree(std::vector<ScorerShard::Node>& nodes, Rng& rng, int depth,
                  int max_depth, const std::vector<std::uint32_t>& operands) {
    const std::size_t index = nodes.size();
    nodes.emplace_back();
    if (depth >= max_depth || rng.Chance(0.25)) {
        nodes[index].value = static_cast<float>(rng.Uniform(-0.5, 0.5));
        return;
    }
    nodes[index].feature = operands[rng.NextBounded(operands.size())];
    nodes[index].value = static_cast<float>(rng.Uniform(0.0, 16.0));
    BuildSubtree(nodes, rng, depth + 1, max_depth, operands);
    nodes[index].right = static_cast<std::uint32_t>(nodes.size());
    BuildSubtree(nodes, rng, depth + 1, max_depth, operands);
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
    for (int t = 0; t < tree_count; ++t) {
        const std::size_t s = static_cast<std::size_t>(t / per_shard);
        roots[s].push_back(static_cast<std::uint32_t>(nodes[s].size()));
        BuildSubtree(nodes[s], rng, 0, max_depth, operands);
    }
    std::array<ScorerShard, ScoringEnsemble::kShardCount> shards;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        shards[s] = ScorerShard(std::move(nodes[s]), std::move(roots[s]));
    }
    return ScoringEnsemble(std::move(shards));
}

}  // namespace catapult::rank
