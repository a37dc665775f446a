/**
 * @file
 * Bounded, mergeable quantile sketch (KLL-style).
 *
 * The observability registry's histograms used to keep every sample so
 * snapshots could report exact quantiles — fine for one device, fatal
 * for a fleet: a million-query run stores a million doubles per metric.
 * A QuantileSketch caps memory at O(k) items regardless of stream
 * length by keeping a hierarchy of weighted sample buffers: level i
 * holds items that each stand in for 2^i original observations. When a
 * level overflows its capacity, it is sorted and every other item
 * (random offset) is promoted with doubled weight — the classic KLL
 * compaction, which preserves total weight and keeps the rank error of
 * any quantile below a small epsilon with high probability.
 *
 * Guarantees this implementation leans on (and tests pin down):
 *
 *  - **Memory bound.** retained() never exceeds maxRetained() =
 *    3k + 2*kMaxLevels + 1 items (~730 doubles at the default k=256),
 *    no matter how many observations are folded in.
 *  - **Accuracy.** For the default k, estimated quantiles land within
 *    epsilon() (= 0.01 rank error, documented and enforced in
 *    sketch_test.cc on 1M-sample streams) of the exact empirical
 *    quantiles.
 *  - **Exact when small.** Until the first compaction (the first k
 *    observations) every item has weight 1 and quantile() reproduces
 *    EmpiricalCdf::quantile bit for bit, so unit tests on small
 *    streams keep their exact expectations.
 *  - **Determinism.** Compaction offsets come from an internal
 *    fixed-seed generator, so the same sequence of add()/mergeFrom()
 *    calls produces an identical sketch — byte-identical bench output
 *    survives the switch from exact samples to sketches.
 *  - **Mergeable.** mergeFrom() folds another sketch in level-wise;
 *    merging preserves total weight and the error bound degrades only
 *    additively, so per-device sketches can be reduced into one fleet
 *    sketch in any order (associativity/commutativity up to epsilon is
 *    tested).
 */

#ifndef PC_UTIL_SKETCH_H
#define PC_UTIL_SKETCH_H

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/types.h"

namespace pc {

/**
 * KLL-style streaming quantile estimator. See file comment for the
 * contract; `k` trades memory (3k items) against rank error (~1/k
 * scale with a small constant).
 */
class QuantileSketch
{
  public:
    /** Default accuracy parameter (rank error ~1% at p50-p99). */
    static constexpr u32 kDefaultK = 256;

    /** Hard ceiling on compaction levels (2^64 observations). */
    static constexpr std::size_t kMaxLevels = 64;

    explicit QuantileSketch(u32 k = kDefaultK);

    /** Fold one observation in. */
    void add(double x);

    /**
     * Fold another sketch in (level-wise concatenation + compaction).
     * Total weight is preserved; the result summarizes the union of
     * both streams.
     */
    void mergeFrom(const QuantileSketch &other);

    /** Observations summarized (exact count, not an estimate). */
    u64 count() const { return n_; }

    /** True when no observation has been folded in. */
    bool empty() const { return n_ == 0; }

    /** Smallest observation ever seen (exact); 0 when empty. */
    double min() const { return n_ ? min_ : 0.0; }

    /** Largest observation ever seen (exact); 0 when empty. */
    double max() const { return n_ ? max_ : 0.0; }

    /**
     * Estimated q-quantile for q in [0, 1]; 0 when empty. q <= 0 and
     * q >= 1 return the exact min/max. Before the first compaction the
     * estimate equals EmpiricalCdf::quantile exactly (same linear
     * interpolation between order statistics).
     */
    double quantile(double q) const;

    /**
     * Several quantiles from one sort of the retained items: out[i] is
     * bit-identical to quantile(qs[i]). Summaries that report
     * p50/p90/p99 together call this instead of sorting three times.
     * @pre out.size() == qs.size().
     */
    void quantiles(std::span<const double> qs, std::span<double> out) const;

    /** Items currently stored across all levels. */
    std::size_t retained() const { return retained_; }

    /**
     * Documented memory cap: retained() <= maxRetained() always (the
     * bound the bounded-memory test asserts).
     */
    std::size_t maxRetained() const
    {
        return std::size_t(3) * k_ + 2 * kMaxLevels + 1;
    }

    /**
     * Documented rank-error bound for quantile() estimates at
     * this k, enforced empirically on 1M-sample streams by the tests.
     */
    double epsilon() const { return 2.56 / double(k_); }

    /** Accuracy parameter. */
    u32 k() const { return k_; }

    /** Compactions performed (0 means every item still has weight 1). */
    u64 compactions() const { return compactions_; }

    /**
     * Retained items as (value, weight) pairs, value-sorted. Weights
     * sum to count(). For tests and custom estimators.
     */
    std::vector<std::pair<double, u64>> weightedItems() const;

  private:
    /** quantile(q) over `items` = weightedItems(), for 0 < q < 1, n >= 2. */
    double interpolate(const std::vector<std::pair<double, u64>> &items,
                       double q) const;

    /** Capacity of `level` when `height` levels exist. */
    std::size_t levelCapacity(std::size_t level, std::size_t height) const;

    /**
     * Recompute every level's cached capacity and their total; called
     * whenever the height changes, the only time capacities move.
     */
    void resetCapacities();

    /** Compact the lowest over-capacity level until under budget. */
    void compress();

    /** Sort + promote every other item of `level` (weight doubles). */
    void compactLevel(std::size_t level);

    /** Deterministic coin for compaction offsets (fixed-seed xorshift). */
    bool coin();

    /** One compaction level: weight-2^i items, unsorted. */
    struct Level
    {
        std::vector<double> items;
        /** levelCapacity(i, height), cached by resetCapacities. */
        std::size_t capacity = 0;
    };

    u32 k_;
    u64 n_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    u64 coinState_;
    u64 compactions_ = 0;
    /** Total capacity at the current height: add() compares against
     *  it on every observation. */
    std::size_t capacity_ = 0;
    /** Items across all levels, kept so add() need not count them. */
    std::size_t retained_ = 0;
    std::vector<Level> levels_;
};

} // namespace pc

#endif // PC_UTIL_SKETCH_H
