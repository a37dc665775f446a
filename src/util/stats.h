/**
 * @file
 * Lightweight statistics containers used by the log analysis and the
 * evaluation harness: running summary stats and empirical CDFs (the
 * paper reports most community results as CDF plots).
 */

#ifndef PC_UTIL_STATS_H
#define PC_UTIL_STATS_H

#include <vector>

#include "util/types.h"

namespace pc {

/**
 * Online mean/variance/min/max accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Fold one observation into the accumulator. */
    void add(double x);

    /**
     * Fold another accumulator in (parallel Welford/Chan combine).
     * Equivalent to having added the other stream's observations here,
     * up to floating-point rounding. Lets per-shard stats be reduced
     * without replaying observations.
     */
    void merge(const RunningStat &other);

    /** Number of observations so far. */
    u64 count() const { return n_; }
    /** Arithmetic mean; 0 when empty. */
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Unbiased sample variance; 0 with fewer than two observations. */
    double variance() const;
    /** Sample standard deviation. */
    double stddev() const;
    /** Smallest observation; 0 when empty. */
    double min() const { return n_ ? min_ : 0.0; }
    /** Largest observation; 0 when empty. */
    double max() const { return n_ ? max_ : 0.0; }
    /** Sum of all observations. */
    double sum() const { return sum_; }

  private:
    u64 n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Empirical CDF over a stored sample. Quantiles use linear interpolation
 * between order statistics.
 */
class EmpiricalCdf
{
  public:
    /** Append an observation (invalidates previously computed quantiles). */
    void add(double x);

    /** Bulk append. */
    void add(const std::vector<double> &xs);

    /** Number of observations. */
    std::size_t size() const { return xs_.size(); }

    /** Empirical P(X <= x). */
    double at(double x) const;

    /** q-quantile for q in [0, 1]. @pre non-empty. */
    double quantile(double q) const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> xs_;
    mutable bool sorted_ = true;
};

/**
 * Popularity-curve helper: given per-item volumes, the cumulative share
 * covered by the top-k most popular items (the x/y series of the paper's
 * Figures 4 and 7).
 */
struct CumulativeShare
{
    /** Item volumes sorted descending. */
    std::vector<u64> sortedVolumes;
    /** Total volume. */
    u64 total = 0;

    /** Build from unsorted volumes. */
    static CumulativeShare fromVolumes(std::vector<u64> volumes);

    /** Share of total volume covered by the top-k items, k clamped. */
    double shareOfTop(std::size_t k) const;

    /** Smallest k whose top-k share reaches the target. */
    std::size_t topForShare(double share) const;
};

} // namespace pc

#endif // PC_UTIL_STATS_H
