/**
 * @file
 * QuantileSketch contract tests: exactness before compaction, the
 * documented rank-error bound on 1M-sample streams, the hard memory
 * cap, merge (union, associativity/commutativity up to epsilon) and
 * determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/rng.h"
#include "util/sketch.h"
#include "util/stats.h"

namespace pc {
namespace {

/** Exact rank of x in a sorted sample (share of items <= x). */
double
exactRank(const std::vector<double> &sorted, double x)
{
    const auto it =
        std::upper_bound(sorted.begin(), sorted.end(), x);
    return double(it - sorted.begin()) / double(sorted.size());
}

/** Log-normal draw: exp of a Box-Muller normal over two uniforms. */
double
logNormal(Rng &rng, double mu, double sigma)
{
    double u1;
    do {
        u1 = rng.uniform();
    } while (u1 <= 0.0);
    const double u2 = rng.uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return std::exp(mu + sigma * z);
}

// Recorded by GoldenAfterAddsAndMerges.
constexpr u64 kGoldenCompactions = 152256;
constexpr u32 kGoldenAdds = 3698379007u;
constexpr u32 kGoldenMerged = 1467463134u;
constexpr u32 kGoldenIntoEmpty = 3593661553u;

const double kProbes[] = {0.01, 0.05, 0.25, 0.50, 0.75, 0.90,
                          0.95, 0.99};

TEST(QuantileSketch, EmptyAndSingle)
{
    QuantileSketch s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);

    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 42.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(QuantileSketch, ExactBeforeFirstCompaction)
{
    // Until the first compaction every item has weight 1 and the
    // sketch must reproduce the exact empirical quantiles bit for bit
    // — this is what keeps small-stream unit tests exact after the
    // registry's histograms switched to sketches.
    QuantileSketch s;
    EmpiricalCdf cdf;
    Rng rng(7);
    for (int i = 0; i < 250; ++i) {
        const double x = rng.uniform(-50.0, 150.0);
        s.add(x);
        cdf.add(x);
    }
    ASSERT_EQ(s.compactions(), 0u)
        << "250 < k items must not trigger compaction";
    for (double q : kProbes)
        EXPECT_DOUBLE_EQ(s.quantile(q), cdf.quantile(q)) << "q=" << q;
    EXPECT_DOUBLE_EQ(s.quantile(0.0), cdf.quantile(0.0));
    EXPECT_DOUBLE_EQ(s.quantile(1.0), cdf.quantile(1.0));
}

TEST(QuantileSketch, ErrorBoundOnMillionSamples)
{
    // The documented contract: on a 1M-sample stream, the estimated
    // q-quantile's exact rank is within epsilon() of q.
    struct Dist
    {
        const char *name;
        double (*draw)(Rng &);
    };
    const Dist dists[] = {
        {"uniform", [](Rng &r) { return r.uniform(0.0, 1000.0); }},
        {"lognormal", [](Rng &r) { return logNormal(r, 3.0, 1.2); }},
    };

    for (const auto &d : dists) {
        QuantileSketch s;
        std::vector<double> sample;
        sample.reserve(1'000'000);
        Rng rng(2011);
        for (int i = 0; i < 1'000'000; ++i) {
            const double x = d.draw(rng);
            s.add(x);
            sample.push_back(x);
        }
        std::sort(sample.begin(), sample.end());
        ASSERT_GT(s.compactions(), 0u);
        for (double q : kProbes) {
            const double v = s.quantile(q);
            EXPECT_NEAR(exactRank(sample, v), q, s.epsilon())
                << d.name << " q=" << q;
        }
        // Extremes are tracked exactly.
        EXPECT_DOUBLE_EQ(s.quantile(0.0), sample.front());
        EXPECT_DOUBLE_EQ(s.quantile(1.0), sample.back());
    }
}

TEST(QuantileSketch, SortedAdversarialStream)
{
    // Monotone input is the classic failure mode of naive samplers.
    QuantileSketch s;
    const int n = 300'000;
    for (int i = 0; i < n; ++i)
        s.add(double(i));
    for (double q : kProbes) {
        const double v = s.quantile(q);
        EXPECT_NEAR(v / double(n - 1), q, s.epsilon()) << "q=" << q;
    }
}

TEST(QuantileSketch, MemoryStaysBounded)
{
    QuantileSketch s;
    Rng rng(3);
    for (int i = 0; i < 1'000'000; ++i) {
        s.add(rng.uniform());
        if (i % 100'000 == 0) {
            ASSERT_LE(s.retained(), s.maxRetained());
        }
    }
    EXPECT_LE(s.retained(), s.maxRetained());
    EXPECT_LE(s.maxRetained(), std::size_t(3) * s.k() + 129)
        << "documented O(k) cap";
    EXPECT_EQ(s.count(), 1'000'000u);
}

TEST(QuantileSketch, WeightConservation)
{
    QuantileSketch s;
    Rng rng(11);
    for (int i = 0; i < 123'457; ++i)
        s.add(rng.uniform());
    u64 weight = 0;
    for (const auto &[v, w] : s.weightedItems()) {
        (void)v;
        weight += w;
    }
    EXPECT_EQ(weight, s.count())
        << "compaction must neither create nor destroy mass";
}

TEST(QuantileSketch, MergeMatchesUnion)
{
    QuantileSketch a, b, merged;
    std::vector<double> all;
    Rng rng(17);
    for (int i = 0; i < 200'000; ++i) {
        const double x = logNormal(rng, 1.0, 0.8);
        (i % 2 ? a : b).add(x);
        all.push_back(x);
    }
    merged.mergeFrom(a);
    merged.mergeFrom(b);
    EXPECT_EQ(merged.count(), 200'000u);
    std::sort(all.begin(), all.end());
    // Merging two sketches degrades the bound only additively.
    for (double q : kProbes) {
        EXPECT_NEAR(exactRank(all, merged.quantile(q)), q,
                    2.0 * merged.epsilon())
            << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(merged.min(), all.front());
    EXPECT_DOUBLE_EQ(merged.max(), all.back());
}

TEST(QuantileSketch, MergeOrderInvariantUpToEpsilon)
{
    // Associativity/commutativity: different merge orders summarize
    // the same union, so their quantile estimates must agree within
    // the (merged) error bound even though internal layouts differ.
    const int parts = 5;
    std::vector<QuantileSketch> shards(parts);
    std::vector<double> all;
    Rng rng(23);
    for (int i = 0; i < 150'000; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        shards[i % parts].add(x);
        all.push_back(x);
    }
    std::sort(all.begin(), all.end());

    QuantileSketch fwd, rev, pairwise;
    for (int i = 0; i < parts; ++i)
        fwd.mergeFrom(shards[i]);
    for (int i = parts - 1; i >= 0; --i)
        rev.mergeFrom(shards[i]);
    // ((0+1) + (2+3)) + 4 — a different association.
    QuantileSketch left, right;
    left.mergeFrom(shards[0]);
    left.mergeFrom(shards[1]);
    right.mergeFrom(shards[2]);
    right.mergeFrom(shards[3]);
    pairwise.mergeFrom(left);
    pairwise.mergeFrom(right);
    pairwise.mergeFrom(shards[4]);

    EXPECT_EQ(fwd.count(), rev.count());
    EXPECT_EQ(fwd.count(), pairwise.count());
    const double eps = 3.0 * fwd.epsilon();
    for (double q : kProbes) {
        const double exact = all[std::size_t(q * double(all.size() - 1))];
        (void)exact;
        EXPECT_NEAR(exactRank(all, fwd.quantile(q)), q, eps);
        EXPECT_NEAR(exactRank(all, rev.quantile(q)), q, eps);
        EXPECT_NEAR(exactRank(all, pairwise.quantile(q)), q, eps);
    }
}

TEST(QuantileSketch, DeterministicAcrossRuns)
{
    // Identical call sequences produce identical sketches — the
    // byte-identical bench-output contract depends on it.
    auto build = [] {
        QuantileSketch s;
        Rng rng(29);
        for (int i = 0; i < 400'000; ++i)
            s.add(rng.uniform());
        return s;
    };
    const QuantileSketch a = build();
    const QuantileSketch b = build();
    ASSERT_EQ(a.retained(), b.retained());
    EXPECT_EQ(a.weightedItems(), b.weightedItems());
    for (double q : kProbes)
        EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q));
}

TEST(QuantileSketch, BatchQuantilesMatchSingleCalls)
{
    // quantiles() sorts once for the whole batch; every value must be
    // bit-identical to its own quantile() call, before and after the
    // first compaction, edge quantiles included.
    const double qs[] = {0.0, 0.5, 0.9, 0.99, 1.0};
    const auto check = [&](const QuantileSketch &s) {
        double out[std::size(qs)];
        s.quantiles(qs, out);
        for (std::size_t i = 0; i < std::size(qs); ++i)
            EXPECT_EQ(out[i], s.quantile(qs[i])) << "q=" << qs[i];
    };
    QuantileSketch s;
    check(s);
    Rng rng(37);
    s.add(rng.uniform(0.0, 10.0));
    check(s);
    for (int i = 0; i < 200; ++i)
        s.add(rng.uniform(0.0, 10.0));
    ASSERT_EQ(s.compactions(), 0u);
    check(s);
    for (int i = 0; i < 50'000; ++i)
        s.add(rng.uniform(0.0, 10.0));
    ASSERT_GT(s.compactions(), 0u);
    check(s);
}

/**
 * CRC-32 of everything a sketch exposes: weighted items (value bits
 * and weights), compaction count, observation count and p50/p90/p99
 * bits. Equal digests mean equal sketches for every reader.
 */
u32
sketchDigest(const QuantileSketch &s)
{
    std::string bytes;
    const auto put = [&bytes](u64 v) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(char(v >> (8 * i)));
    };
    for (const auto &[v, w] : s.weightedItems()) {
        put(std::bit_cast<u64>(v));
        put(w);
    }
    put(s.compactions());
    put(s.count());
    const double qs[] = {0.50, 0.90, 0.99};
    double out[std::size(qs)];
    s.quantiles(qs, out);
    for (double q : out)
        put(std::bit_cast<u64>(q));
    return crc32(bytes);
}

TEST(QuantileSketch, GoldenAfterAddsAndMerges)
{
    // Pins the exact sketch a fixed stream and merge sequence produce,
    // so a change to the sketch's bookkeeping (capacities, retained
    // count, buffer reuse) must keep every coin and every item. The
    // digests were recorded before that bookkeeping was cached.
    QuantileSketch s;
    Rng rng(41);
    for (int i = 0; i < 1'000'000; ++i)
        s.add(logNormal(rng, 2.0, 0.7));
    EXPECT_EQ(s.compactions(), kGoldenCompactions);
    EXPECT_EQ(sketchDigest(s), kGoldenAdds);

    // Merge a small sketch (no compaction), a taller one (the
    // receiver's height grows) and a shorter one.
    QuantileSketch small, tall, shorter;
    for (int i = 0; i < 100; ++i)
        small.add(rng.uniform(0.0, 50.0));
    for (int i = 0; i < 4'000'000; ++i)
        tall.add(logNormal(rng, 1.0, 1.2));
    for (int i = 0; i < 20'000; ++i)
        shorter.add(rng.uniform(5.0, 15.0));
    const auto topWeight = [](const QuantileSketch &x) {
        u64 w = 0;
        for (const auto &item : x.weightedItems())
            w = std::max(w, item.second);
        return w;
    };
    ASSERT_GT(topWeight(tall), topWeight(s));
    ASSERT_LT(topWeight(shorter), topWeight(s));
    s.mergeFrom(small);
    s.mergeFrom(tall);
    s.mergeFrom(shorter);
    EXPECT_EQ(sketchDigest(s), kGoldenMerged);

    // Merging into an empty sketch copies the other's levels.
    QuantileSketch empty;
    empty.mergeFrom(shorter);
    EXPECT_EQ(sketchDigest(empty), kGoldenIntoEmpty);
}

} // namespace
} // namespace pc
