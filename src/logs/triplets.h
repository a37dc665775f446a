/**
 * @file
 * <query, search result, volume> triplet aggregation (Table 3).
 *
 * The server-side first step of PocketSearch content generation
 * (Section 5.1): scan a month of logs, count how many times each
 * (query, clicked result) pair occurred, and sort descending by volume.
 */

#ifndef PC_LOGS_TRIPLETS_H
#define PC_LOGS_TRIPLETS_H

#include <vector>

#include "workload/searchlog.h"

namespace pc::logs {

using workload::PairRef;
using workload::SearchLog;

/** One aggregated row of Table 3. */
struct Triplet
{
    PairRef pair{0, 0};
    u64 volume = 0;
};

/**
 * Sorted triplet table extracted from a log.
 */
class TripletTable
{
  public:
    /**
     * Aggregate and sort a log's records, skipping records whose ids
     * fall outside the log's universe.
     */
    static TripletTable fromLog(const SearchLog &log);

    /**
     * Build from pre-aggregated rows already sorted by rowOrder().
     * The server builder hands its counted, volume-sorted rows here;
     * order is asserted in debug builds.
     */
    static TripletTable fromSortedRows(std::vector<Triplet> rows);

    /**
     * The strict total order fromLog() sorts with: volume descending,
     * ties by packed (query, result) id ascending. The server builder
     * reproduces it with a stable volume sort of key-ordered rows.
     */
    static bool rowOrder(const Triplet &a, const Triplet &b);

    /** Rows, descending by volume (ties broken deterministically). */
    const std::vector<Triplet> &rows() const { return rows_; }

    /** Total click volume across all rows. */
    u64 totalVolume() const { return total_; }

    /** Normalized volume of row i (row volume / total volume). */
    double normalizedVolume(std::size_t i) const;

    /** Cumulative share of volume carried by the first k rows. */
    double cumulativeShare(std::size_t k) const;

    /** Smallest row count whose cumulative share reaches `share`. */
    std::size_t rowsForShare(double share) const;

  private:
    std::vector<Triplet> rows_;
    std::vector<u64> cumulative_; ///< Prefix sums of row volumes.
    u64 total_ = 0;
};

} // namespace pc::logs

#endif // PC_LOGS_TRIPLETS_H
