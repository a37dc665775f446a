/**
 * @file
 * Unit and property tests for the Zipf sampler — the statistical heart
 * of the workload generator. The rejection-inversion sampler must match
 * the analytic truncated-Zipf CDF across the exponent range the
 * calibration solver can produce.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "util/rng.h"
#include "util/zipf.h"

namespace pc {
namespace {

TEST(GeneralizedHarmonic, KnownValues)
{
    EXPECT_DOUBLE_EQ(generalizedHarmonic(1, 1.0), 1.0);
    EXPECT_NEAR(generalizedHarmonic(3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(generalizedHarmonic(4, 0.0), 4.0, 1e-12);
    EXPECT_NEAR(generalizedHarmonic(2, 2.0), 1.25, 1e-12);
}

TEST(ZipfSampler, PmfSumsToOne)
{
    ZipfSampler z(1000, 1.2);
    double sum = 0.0;
    for (u64 k = 0; k < 1000; ++k)
        sum += z.pmf(k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, CdfMonotoneAndEndsAtOne)
{
    ZipfSampler z(500, 0.8);
    double prev = 0.0;
    for (u64 k = 0; k < 500; ++k) {
        const double c = z.cdf(k);
        ASSERT_GE(c, prev);
        prev = c;
    }
    EXPECT_NEAR(z.cdf(499), 1.0, 1e-9);
}

TEST(ZipfSampler, SingleElementSupport)
{
    ZipfSampler z(1, 1.0);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(z.sample(rng), 0u);
    EXPECT_NEAR(z.pmf(0), 1.0, 1e-12);
}

TEST(ZipfSampler, UniformWhenSkewZero)
{
    ZipfSampler z(10, 0.0);
    for (u64 k = 0; k < 10; ++k)
        EXPECT_NEAR(z.pmf(k), 0.1, 1e-9);
}

TEST(ZipfSampler, HeadForShareInvertsCdf)
{
    ZipfSampler z(10000, 1.0);
    const u64 head = z.headForShare(0.6);
    EXPECT_NEAR(z.cdf(head - 1), 0.6, 0.01);
    if (head > 1) {
        EXPECT_LT(z.cdf(head - 2), 0.6);
    }
}

TEST(SolveZipfExponent, RoundTripsHeadShare)
{
    const u64 n = 50000, head = 2000;
    for (double target : {0.2, 0.4, 0.6, 0.8}) {
        const double s = solveZipfExponent(n, head, target);
        const double achieved =
            generalizedHarmonic(head, s) / generalizedHarmonic(n, s);
        EXPECT_NEAR(achieved, target, 0.01) << "target " << target;
    }
}

/** Property sweep: empirical CDF must match analytic across exponents. */
class ZipfEmpirical : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfEmpirical, EmpiricalMatchesAnalyticCdf)
{
    const double s = GetParam();
    const u64 n = 20000;
    ZipfSampler z(n, s);
    Rng rng(u64(s * 1000) + 3);
    const int draws = 200000;
    u64 lt10 = 0, lt100 = 0, lt1000 = 0;
    for (int i = 0; i < draws; ++i) {
        const u64 r = z.sample(rng);
        ASSERT_LT(r, n);
        lt10 += (r < 10);
        lt100 += (r < 100);
        lt1000 += (r < 1000);
    }
    EXPECT_NEAR(double(lt10) / draws, z.cdf(9), 0.01) << "s=" << s;
    EXPECT_NEAR(double(lt100) / draws, z.cdf(99), 0.01) << "s=" << s;
    EXPECT_NEAR(double(lt1000) / draws, z.cdf(999), 0.012) << "s=" << s;
}

TEST_P(ZipfEmpirical, TailIsReached)
{
    const double s = GetParam();
    if (s > 1.6)
        return; // extreme skew legitimately rarely reaches the tail
    const u64 n = 20000;
    ZipfSampler z(n, s);
    Rng rng(u64(s * 977) + 11);
    u64 max_rank = 0;
    for (int i = 0; i < 100000; ++i)
        max_rank = std::max(max_rank, z.sample(rng));
    EXPECT_GT(max_rank, n / 4) << "sampler never leaves the head, s=" << s;
}

INSTANTIATE_TEST_SUITE_P(ExponentSweep, ZipfEmpirical,
                         ::testing::Values(0.0, 0.3, 0.5, 0.665, 0.8,
                                           0.99, 1.0, 1.01, 1.141, 1.3,
                                           1.6, 2.0));

TEST(ZipfSampler, DistinctRankCountGrowsWithFlatness)
{
    // Flatter distributions must touch more distinct ranks — the
    // regression that originally broke workload calibration.
    const u64 n = 100000;
    Rng rng(5);
    auto distinct = [&](double s) {
        ZipfSampler z(n, s);
        std::unordered_set<u64> seen;
        for (int i = 0; i < 50000; ++i)
            seen.insert(z.sample(rng));
        return seen.size();
    };
    const auto d_flat = distinct(0.5);
    const auto d_mid = distinct(1.0);
    const auto d_steep = distinct(1.8);
    EXPECT_GT(d_flat, d_mid);
    EXPECT_GT(d_mid, d_steep);
    EXPECT_GT(d_flat, 20000u);
}

} // namespace
} // namespace pc
