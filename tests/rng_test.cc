/**
 * @file
 * Unit tests for the deterministic RNG and its distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace pc {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(11);
    for (u64 n : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 2000; ++i)
            ASSERT_LT(rng.below(n), n);
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(13);
    const u64 n = 10;
    std::vector<int> counts(n, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(n)];
    for (u64 k = 0; k < n; ++k) {
        EXPECT_NEAR(double(counts[k]) / draws, 0.1, 0.01)
            << "bucket " << k;
    }
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(29);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(4.0);
        ASSERT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, WeightedFollowsWeights)
{
    Rng rng(47);
    const std::vector<double> w = {1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weighted(w)];
    EXPECT_NEAR(double(counts[0]) / n, 0.1, 0.01);
    EXPECT_NEAR(double(counts[1]) / n, 0.3, 0.01);
    EXPECT_NEAR(double(counts[2]) / n, 0.6, 0.01);
}

TEST(Rng, WeightedHandlesZeroWeights)
{
    Rng rng(53);
    const std::vector<double> w = {0.0, 1.0, 0.0};
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(rng.weighted(w), 1u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(61);
    Rng b = a.fork();
    // The fork and the parent should not emit identical sequences.
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(67);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    auto orig = v;
    rng.shuffle(v);
    EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), orig.begin()));
    EXPECT_NE(v, orig) << "100-element shuffle should move something";
}

TEST(Rng, ShuffleUniformFirstElement)
{
    Rng rng(71);
    std::vector<int> counts(5, 0);
    for (int i = 0; i < 50000; ++i) {
        std::vector<int> v = {0, 1, 2, 3, 4};
        rng.shuffle(v);
        ++counts[v[0]];
    }
    for (int c : counts)
        EXPECT_NEAR(double(c) / 50000.0, 0.2, 0.015);
}

} // namespace
} // namespace pc
