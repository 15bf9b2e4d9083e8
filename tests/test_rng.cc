// Unit tests for the deterministic RNG.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"

namespace catapult {
namespace {

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.Next() == b.Next()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        const double x = rng.NextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextBoundedRespectsBound) {
    Rng rng(11);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 48ull, 1'000'000ull}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.NextBounded(bound), bound);
        }
    }
}

TEST(Rng, NextBoundedCoversRange) {
    Rng rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusive) {
    Rng rng(17);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.UniformInt(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialMean) {
    Rng rng(19);
    double sum = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
    Rng rng(23);
    double sum = 0, sum2 = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.Normal();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, LogNormalMeanMatchesFormula) {
    Rng rng(29);
    const double mu = 1.0, sigma = 0.5;
    double sum = 0;
    const int n = 300'000;
    for (int i = 0; i < n; ++i) sum += rng.LogNormal(mu, sigma);
    EXPECT_NEAR(sum / n, std::exp(mu + sigma * sigma / 2), 0.05);
}

TEST(Rng, PoissonSmallLambdaMean) {
    Rng rng(31);
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.0));
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, PoissonLargeLambdaMean) {
    Rng rng(37);
    double sum = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(100.0));
    EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, PoissonZeroLambda) {
    Rng rng(41);
    EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(Rng, ChanceEdgeCases) {
    Rng rng(43);
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
}

TEST(Rng, ChanceFrequency) {
    Rng rng(47);
    int hits = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) hits += rng.Chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMean) {
    Rng rng(53);
    // Mean failures before success = (1-p)/p = 9 for p = 0.1.
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Geometric(0.1));
    EXPECT_NEAR(sum / n, 9.0, 0.2);
}

TEST(Rng, ForkIsIndependent) {
    Rng parent(61);
    Rng child = parent.Fork();
    // Child stream differs from the parent continuing.
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.Next() == child.Next()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

}  // namespace
}  // namespace catapult
