/**
 * @file
 * Zipf/zeta-distributed rank sampling.
 *
 * Mobile query and clicked-result popularity in the paper is extremely
 * head-heavy (Figure 4: the 6000 most popular of millions of distinct
 * queries cover ~60% of the volume). A (truncated) Zipf distribution over
 * ranks is the standard model for such popularity curves; ZipfSampler
 * produces ranks in [0, n) with P(rank = k) proportional to 1/(k+1)^s.
 *
 * The implementation uses Hormann & Derflinger rejection-inversion, which
 * is O(1) per sample independent of n, so we can model universes of
 * millions of distinct queries without building million-entry tables.
 * Only the acceptance bounds of the first kBoundTableRanks ranks are
 * tabulated, at construction, which leaves a draw there one inversion
 * (log1p and exp) instead of six transcendental calls.
 */

#ifndef PC_UTIL_ZIPF_H
#define PC_UTIL_ZIPF_H

#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace pc {

/**
 * Truncated Zipf(s) sampler over ranks 0..n-1 with O(1) sampling.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of ranks (support size). @pre n >= 1.
     * @param s Skew exponent. s = 0 is uniform; larger is more head-heavy.
     *          @pre s >= 0 and s != 1 handled exactly (s == 1 supported).
     */
    ZipfSampler(u64 n, double s);

    /** Draw a rank in [0, n). Rank 0 is the most popular item. */
    u64 sample(Rng &rng) const;

    /** Probability mass of a given rank under the truncated Zipf. */
    double pmf(u64 rank) const;

    /** Cumulative mass of ranks [0, k], i.e. the head share of top-(k+1). */
    double cdf(u64 rank) const;

    /** Support size. */
    u64 size() const { return n_; }

    /** Skew exponent. */
    double skew() const { return s_; }

    /**
     * Find the smallest head size h such that ranks [0, h) carry at least
     * the given share of total mass. Used to calibrate generators against
     * the paper's "top 6000 queries = 60% of volume" style statements.
     */
    u64 headForShare(double share) const;

    /**
     * Ranks whose acceptance bound is tabulated at construction: 512 KiB
     * of doubles at most, so a sampler over millions of ranks stays
     * small and computes the bound of a deeper rank per draw.
     */
    static constexpr u64 kBoundTableRanks = u64(1) << 16;

  private:
    /** H(x) = integral of the rank density; see Hormann & Derflinger. */
    double hIntegral(double x) const;
    /** Inverse of hIntegral. */
    double hIntegralInverse(double x) const;
    /** Point density helper. */
    double h(double x) const;
    /** Acceptance bound of 1-based rank k: hIntegral(k + 0.5) - h(k). */
    double acceptBound(u64 k) const;

    u64 n_;
    double s_;
    double hX1_;         // hIntegral(1.5) - 1
    double hN_;          // hIntegral(n + 0.5)
    double harmonic_;    // generalized harmonic number H_{n,s} (normalizer)
    /** acceptBound(k) at index k - 1, for k up to kBoundTableRanks. */
    std::vector<double> bound_;
};

/** Generalized harmonic number H_{n,s} = sum_{k=1..n} k^-s. */
double generalizedHarmonic(u64 n, double s);

/**
 * Solve for the Zipf exponent s such that the top `head` ranks of an
 * n-rank Zipf carry approximately `share` of the mass. Bisection over
 * s in [0.4, 3.0]; used by workload calibration.
 */
double solveZipfExponent(u64 n, u64 head, double share);

} // namespace pc

#endif // PC_UTIL_ZIPF_H
