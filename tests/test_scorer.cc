// Unit tests for the document-scoring ensemble (§4.6).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

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

/**
 * Reference walker: the scalar tree-by-tree walk, one data-dependent
 * branch per split, summing leaf values in tree order. The shard's
 * interleaved branch-free walk must match it bit for bit.
 */
float ReferencePartialScore(const ScorerShard& shard,
                            const FeatureStore& store) {
    const auto& nodes = shard.nodes();
    float sum = 0.0f;
    for (const std::uint32_t root : shard.roots()) {
        std::uint32_t i = root;
        while (nodes[i].feature != TreeNode::kLeaf) {
            i = store.Get(nodes[i].feature) <= nodes[i].value ? i + 1
                                                              : nodes[i].right;
        }
        sum += nodes[i].value;
    }
    return sum;
}

/** Splits on the longest root-to-leaf path below flat node `i`. */
int ReferenceDepth(const std::vector<ScorerShard::Node>& nodes,
                   std::uint32_t i) {
    if (nodes[i].feature == TreeNode::kLeaf) return 0;
    return 1 + std::max(ReferenceDepth(nodes, i + 1),
                        ReferenceDepth(nodes, nodes[i].right));
}

/** The walk and the reference agree bit for bit; depth is recorded. */
void ExpectMatchesReference(const ScorerShard& shard,
                            const FeatureStore& store) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(shard.PartialScore(store)),
              std::bit_cast<std::uint32_t>(ReferencePartialScore(shard, store)));
    int depth = 0;
    for (const std::uint32_t root : shard.roots()) {
        depth = std::max(depth, ReferenceDepth(shard.nodes(), root));
    }
    EXPECT_EQ(shard.max_depth(), depth);
}

TreeNode Leaf(float value) {
    TreeNode node;
    node.leaf_value = value;
    return node;
}

/**
 * A build-form tree whose split nodes all test `feature` against
 * `threshold`: a path of `depth` splits that goes left (or right, when
 * `right_spine`) at every level, with a distinct leaf off each split.
 */
DecisionTree SpineTree(int depth, bool right_spine, std::uint32_t feature,
                       float threshold) {
    // Split d at 2d, its leaf sibling at 2d + 1, the spine on at 2d + 2.
    DecisionTree tree;
    for (int d = 0; d < depth; ++d) {
        TreeNode split;
        split.feature = feature;
        split.threshold = threshold;
        const std::int32_t sibling = 2 * d + 1;
        const std::int32_t spine = 2 * d + 2;
        split.left = right_spine ? sibling : spine;
        split.right = right_spine ? spine : sibling;
        tree.nodes.push_back(split);
        tree.nodes.push_back(Leaf(static_cast<float>(d) + 0.5f));
    }
    tree.nodes.push_back(Leaf(-100.0f - static_cast<float>(depth)));
    return tree;
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

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/**
 * A store that sets every split's feature to something the comparison
 * must get right: the split's own threshold or its float neighbours,
 * NaN, an infinity, a signed zero, a denormal, or a plain value.
 */
FeatureStore AdversarialStore(const ScorerShard& shard, std::uint64_t seed) {
    constexpr std::array<float, 9> kSpecial = {
        kNaN, kInf, -kInf, 0.0f, -0.0f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest()};
    Rng rng(seed);
    FeatureStore store;
    for (const ScorerShard::Node& node : shard.nodes()) {
        if (node.feature == TreeNode::kLeaf) continue;
        float x = 0.0f;
        switch (rng.NextBounded(5)) {
          case 0: x = node.value; break;
          case 1: x = std::nextafter(node.value, kInf); break;
          case 2: x = std::nextafter(node.value, -kInf); break;
          case 3: x = kSpecial[rng.NextBounded(kSpecial.size())]; break;
          default: x = static_cast<float>(rng.Uniform(-1.0, 17.0)); break;
        }
        store.Set(node.feature, x);
    }
    return store;
}

TEST(ScorerShard, WalkMatchesReferenceOnGeneratedEnsembles) {
    // Tree counts on both sides of multiples of the walk width leave
    // every shard a tail of single-tree walks; a small operand window
    // makes many splits share a feature, so one store value meets
    // several thresholds.
    for (const int trees : {1, 2, 17, 47, 48, 49, 50, 301}) {
        for (const int depth : {0, 1, 3, 6, 9}) {
            const ScoringEnsemble ensemble = GenerateEnsemble(
                static_cast<std::uint64_t>(trees * 16 + depth), trees, depth,
                /*operand_budget=*/64);
            const FeatureStore plain = MakeStore(0.7f);
            for (int s = 0; s < ScoringEnsemble::kShardCount; ++s) {
                const ScorerShard& shard = ensemble.shard(s);
                SCOPED_TRACE(::testing::Message() << "trees " << trees
                                                  << " depth " << depth
                                                  << " shard " << s);
                ExpectMatchesReference(shard, plain);
                for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                    ExpectMatchesReference(shard,
                                           AdversarialStore(shard, seed));
                }
            }
        }
    }
    // A production-sized ensemble: 2,000 trees per shard.
    const ScoringEnsemble production = GenerateEnsemble(42, 6'000);
    for (int s = 0; s < ScoringEnsemble::kShardCount; ++s) {
        EXPECT_EQ(production.shard(s).max_depth(), 6);
        ExpectMatchesReference(production.shard(s), MakeStore());
        ExpectMatchesReference(production.shard(s),
                               AdversarialStore(production.shard(s), 7));
    }
}

TEST(ScorerShard, WalkMatchesReferenceOnAdversarialTrees) {
    // 38 trees (two full walk blocks and a tail of 6): empty trees,
    // single leaves, and left and right spines from 1 to 12 splits, on
    // thresholds that include signed zeros, infinities and NaN.
    constexpr std::array<float, 7> kThresholds = {0.0f, -0.0f, 1.0f, kInf,
                                                  -kInf, kNaN, 3.5f};
    std::vector<DecisionTree> trees;
    for (int t = 0; t < 37; ++t) {
        const auto feature = static_cast<std::uint32_t>(t % 5);
        const float threshold = kThresholds[static_cast<std::size_t>(t) %
                                            kThresholds.size()];
        switch (t % 4) {
          case 0:
            trees.push_back(DecisionTree{});
            break;
          case 1:
            trees.push_back(DecisionTree{{Leaf(0.25f * static_cast<float>(t))}});
            break;
          default:
            trees.push_back(SpineTree(1 + t % 12, t % 4 == 3, feature,
                                      threshold));
            break;
        }
    }
    trees.push_back(SpineTree(12, false, 2, 1.0f));  // the deepest path
    const ScorerShard shard(trees);
    EXPECT_EQ(shard.tree_count(), 38);
    EXPECT_EQ(shard.max_depth(), 12);
    constexpr std::array<float, 12> kValues = {
        kNaN, kInf, -kInf, 0.0f, -0.0f, 1.0f, 3.5f,
        std::nextafter(1.0f, kInf), std::nextafter(1.0f, -kInf),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), 1e30f};
    for (const float a : kValues) {
        for (const float b : kValues) {
            FeatureStore store;
            for (std::uint32_t f = 0; f < 5; ++f) store.Set(f, f % 2 ? a : b);
            SCOPED_TRACE(::testing::Message() << "a " << a << " b " << b);
            ExpectMatchesReference(shard, store);
        }
    }

    // One 12-split left spine on feature 2 at threshold 1.0.
    const ScorerShard spine({SpineTree(12, false, 2, 1.0f)});
    FeatureStore store;
    store.Set(2, 1.0f);  // equal to the threshold: left to the bottom
    EXPECT_EQ(spine.PartialScore(store), -112.0f);
    store.Set(2, kNaN);  // NaN fails <= and goes right at the root
    EXPECT_EQ(spine.PartialScore(store), 0.5f);
    store.Set(2, std::nextafter(1.0f, kInf));
    EXPECT_EQ(spine.PartialScore(store), 0.5f);
    // -0.0 <= 0.0: a signed zero goes left.
    const ScorerShard zero({SpineTree(1, false, 2, 0.0f)});
    store.Set(2, -0.0f);
    EXPECT_EQ(zero.PartialScore(store), -101.0f);
}

}  // namespace
}  // namespace catapult::rank
