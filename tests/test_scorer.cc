// Unit tests for the document-scoring ensemble (§4.6).

#include <gtest/gtest.h>

#include "rank/scorer.h"

namespace catapult::rank {
namespace {

FeatureStore MakeStore(float scale = 1.0f) {
    FeatureStore store;
    for (std::uint32_t i = 0; i < kFeatureUniverse; i += 5) {
        store.Set(i, scale * static_cast<float>(i % 23));
    }
    return store;
}

TEST(DecisionTree, LeafOnlyTree) {
    DecisionTree tree;
    TreeNode leaf;
    leaf.feature = TreeNode::kLeaf;
    leaf.leaf_value = 0.25f;
    tree.nodes.push_back(leaf);
    FeatureStore store;
    EXPECT_EQ(ScorerShard({tree}).PartialScore(store), 0.25f);
}

TEST(DecisionTree, BranchesOnThreshold) {
    DecisionTree tree;
    TreeNode root;
    root.feature = 10;
    root.threshold = 5.0f;
    root.left = 1;
    root.right = 2;
    tree.nodes.push_back(root);
    TreeNode left;
    left.feature = TreeNode::kLeaf;
    left.leaf_value = -1.0f;
    tree.nodes.push_back(left);
    TreeNode right;
    right.feature = TreeNode::kLeaf;
    right.leaf_value = 1.0f;
    tree.nodes.push_back(right);

    const ScorerShard shard({tree});
    FeatureStore store;
    store.Set(10, 3.0f);
    EXPECT_EQ(shard.PartialScore(store), -1.0f);
    store.Set(10, 7.0f);
    EXPECT_EQ(shard.PartialScore(store), 1.0f);
    store.Set(10, 5.0f);  // boundary goes left
    EXPECT_EQ(shard.PartialScore(store), -1.0f);
}

TEST(ScoringEnsemble, ShardsPreserveTotalScore) {
    // The 3-chip split must not change the score: shard partials sum in
    // pipeline order, identical to a single evaluator (§4.6).
    const ScoringEnsemble ensemble = GenerateEnsemble(99, 300);
    const FeatureStore store = MakeStore();
    float sharded = 0.0f;
    for (int s = 0; s < ScoringEnsemble::kShardCount; ++s) {
        sharded += ensemble.shard(s).PartialScore(store);
    }
    EXPECT_EQ(sharded, ensemble.Score(store));
}

TEST(ScoringEnsemble, DeterministicForSeed) {
    const ScoringEnsemble a = GenerateEnsemble(7, 100);
    const ScoringEnsemble b = GenerateEnsemble(7, 100);
    const FeatureStore store = MakeStore();
    EXPECT_EQ(a.Score(store), b.Score(store));
    const ScoringEnsemble c = GenerateEnsemble(8, 100);
    EXPECT_NE(a.Score(store), c.Score(store));
}

TEST(ScoringEnsemble, ScoreDependsOnFeatures) {
    const ScoringEnsemble ensemble = GenerateEnsemble(11, 200);
    const FeatureStore a = MakeStore(1.0f);
    const FeatureStore b = MakeStore(2.0f);
    EXPECT_NE(ensemble.Score(a), ensemble.Score(b));
}

TEST(ScoringEnsemble, TreeCountSharding) {
    const ScoringEnsemble ensemble = GenerateEnsemble(13, 100);
    EXPECT_EQ(ensemble.total_trees(), 100);
    // Contiguous sharding: 34 + 34 + 32.
    EXPECT_EQ(ensemble.shard(0).tree_count(), 34);
    EXPECT_EQ(ensemble.shard(1).tree_count(), 34);
    EXPECT_EQ(ensemble.shard(2).tree_count(), 32);
}

TEST(ScorerShard, ServiceTimeScalesWithTrees) {
    const ScoringEnsemble small = GenerateEnsemble(17, 300);
    const ScoringEnsemble large = GenerateEnsemble(17, 6'000);
    EXPECT_LT(small.shard(0).ServiceTime(), large.shard(0).ServiceTime());
    // A production shard (2,000 trees) fits the 8 us macropipeline budget.
    EXPECT_LT(large.shard(0).ServiceTime(), Microseconds(8));
}

TEST(ScorerShard, ModelBytesProportionalToNodes) {
    const ScoringEnsemble ensemble = GenerateEnsemble(19, 500);
    const auto& shard = ensemble.shard(0);
    EXPECT_EQ(shard.ModelBytes(), shard.total_nodes() * 8);
    EXPECT_GT(shard.total_nodes(), shard.tree_count());
}

TEST(ScorerShard, EmptyShardScoresZero) {
    ScorerShard shard;
    FeatureStore store;
    EXPECT_EQ(shard.PartialScore(store), 0.0f);
    EXPECT_EQ(shard.ModelBytes(), 0);
}

}  // namespace
}  // namespace catapult::rank
