/**
 * @file
 * Unit tests for statistics containers.
 */

#include <gtest/gtest.h>

#include "util/stats.h"

namespace pc {
namespace {

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, SingleValue)
{
    RunningStat s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStat, MatchesClosedForm)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic dataset: population var 4, n=8 ->
    // sample var = 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, NegativeValues)
{
    RunningStat s;
    s.add(-5.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, MergeMatchesSingleStream)
{
    // Parallel Welford combine: splitting a stream across two
    // accumulators and merging must match feeding one accumulator.
    const std::vector<double> xs = {2.0, -4.0, 4.5,  4.0, 5.0,
                                    5.5, 7.0,  -9.0, 0.0, 12.5};
    RunningStat whole;
    for (double x : xs)
        whole.add(x);

    for (std::size_t split = 0; split <= xs.size(); ++split) {
        RunningStat a, b;
        for (std::size_t i = 0; i < xs.size(); ++i)
            (i < split ? a : b).add(xs[i]);
        a.merge(b);
        EXPECT_EQ(a.count(), whole.count()) << "split=" << split;
        EXPECT_NEAR(a.mean(), whole.mean(), 1e-12) << "split=" << split;
        EXPECT_NEAR(a.variance(), whole.variance(), 1e-12)
            << "split=" << split;
        EXPECT_DOUBLE_EQ(a.min(), whole.min()) << "split=" << split;
        EXPECT_DOUBLE_EQ(a.max(), whole.max()) << "split=" << split;
        EXPECT_NEAR(a.sum(), whole.sum(), 1e-12) << "split=" << split;
    }
}

TEST(RunningStat, MergeWithEmptySides)
{
    RunningStat full;
    full.add(3.0);
    full.add(7.0);

    RunningStat a = full, empty;
    a.merge(empty); // no-op
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);

    RunningStat b;
    b.merge(full); // adopt the other stream wholesale
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 5.0);
    EXPECT_DOUBLE_EQ(b.min(), 3.0);
    EXPECT_DOUBLE_EQ(b.max(), 7.0);
}

TEST(EmpiricalCdf, AtComputesFraction)
{
    EmpiricalCdf cdf;
    cdf.add({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInterpolates)
{
    EmpiricalCdf cdf;
    cdf.add({0.0, 10.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
}

TEST(EmpiricalCdf, QuantileUnsortedInput)
{
    EmpiricalCdf cdf;
    cdf.add({9.0, 1.0, 5.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 9.0);
}

TEST(EmpiricalCdf, AddAfterQueryResorts)
{
    EmpiricalCdf cdf;
    cdf.add(5.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
    cdf.add(10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
}

TEST(EmpiricalCdf, QuantileSingleSample)
{
    EmpiricalCdf cdf;
    cdf.add(7.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 7.0);
}

TEST(EmpiricalCdf, QuantileExtremesHitOrderStatistics)
{
    EmpiricalCdf cdf;
    cdf.add({3.0, 1.0, 4.0, 1.0, 5.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0) << "q=0 is the minimum";
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0) << "q=1 is the maximum";
}

TEST(EmpiricalCdf, QuantileWithDuplicates)
{
    EmpiricalCdf cdf;
    cdf.add({2.0, 2.0, 2.0, 2.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.37), 2.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 2.0);

    // A run of duplicates pins the interior quantiles that land on it.
    EmpiricalCdf mixed;
    mixed.add({1.0, 5.0, 5.0, 5.0, 9.0});
    EXPECT_DOUBLE_EQ(mixed.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(mixed.quantile(0.25), 5.0);
    EXPECT_DOUBLE_EQ(mixed.quantile(0.75), 5.0);
}

TEST(CumulativeShare, SortsAndAccumulates)
{
    auto cs = CumulativeShare::fromVolumes({10, 50, 20, 20});
    EXPECT_EQ(cs.total, 100u);
    EXPECT_DOUBLE_EQ(cs.shareOfTop(0), 0.0);
    EXPECT_DOUBLE_EQ(cs.shareOfTop(1), 0.5);
    EXPECT_DOUBLE_EQ(cs.shareOfTop(2), 0.7);
    EXPECT_DOUBLE_EQ(cs.shareOfTop(4), 1.0);
    EXPECT_DOUBLE_EQ(cs.shareOfTop(100), 1.0); // clamped
}

TEST(CumulativeShare, TopForShare)
{
    auto cs = CumulativeShare::fromVolumes({10, 50, 20, 20});
    EXPECT_EQ(cs.topForShare(0.5), 1u);
    EXPECT_EQ(cs.topForShare(0.51), 2u);
    EXPECT_EQ(cs.topForShare(0.7), 2u);
    EXPECT_EQ(cs.topForShare(1.0), 4u);
}

TEST(CumulativeShare, EmptyVolumes)
{
    auto cs = CumulativeShare::fromVolumes({});
    EXPECT_EQ(cs.total, 0u);
    EXPECT_DOUBLE_EQ(cs.shareOfTop(5), 0.0);
    EXPECT_EQ(cs.topForShare(0.5), 0u);
}

} // namespace
} // namespace pc
