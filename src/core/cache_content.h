/**
 * @file
 * Cache content generation (Section 5.1 of the paper).
 *
 * Server-side selection of which (query, search result) pairs the phone
 * should cache. Starting from the volume-sorted triplet table, pairs are
 * added top-down until either a memory threshold (flash or DRAM budget)
 * or the cache saturation threshold (normalized volume of the next pair
 * falls below Vth) is reached. Each selected pair carries a ranking
 * score: its volume normalized across all selected results for the same
 * query.
 */

#ifndef PC_CORE_CACHE_CONTENT_H
#define PC_CORE_CACHE_CONTENT_H

#include <vector>

#include "logs/triplets.h"
#include "workload/universe.h"

namespace pc::core {

using logs::Triplet;
using logs::TripletTable;
using workload::PairRef;
using workload::QueryUniverse;

/** One cached (query, result) pair with its community ranking score. */
struct ScoredPair
{
    PairRef pair{0, 0};
    double score = 0.0; ///< Volume share among the query's cached results.
    u64 volume = 0;     ///< Raw click volume (for diagnostics).
};

/** Which stopping rule content selection uses. */
enum class ThresholdKind
{
    FlashBudget,     ///< Stop when result records exceed a flash budget.
    DramBudget,      ///< Stop when the hash table exceeds a DRAM budget.
    CacheSaturation, ///< Stop when normalized volume drops below Vth.
    VolumeShare,     ///< Stop when cumulative share reaches a target.
};

/** Content selection policy. */
struct ContentPolicy
{
    ThresholdKind kind = ThresholdKind::VolumeShare;
    Bytes flashBudget = 1 * kMiB;    ///< For FlashBudget.
    Bytes dramBudget = 200 * kKiB;   ///< For DramBudget.
    double saturationVth = 1e-5;     ///< For CacheSaturation.
    double volumeShare = 0.55;       ///< For VolumeShare (paper's choice).
};

/** Selected cache contents plus footprint accounting. */
struct CacheContents
{
    std::vector<ScoredPair> pairs;   ///< Selected pairs, by volume.
    std::size_t uniqueResults = 0;   ///< Distinct results among pairs.
    Bytes flashBytes = 0;            ///< Estimated DB bytes (records only).
    Bytes dramBytes = 0;             ///< Estimated hash-table bytes.
    double cumulativeShare = 0.0;    ///< Share of log volume covered.
};

/** Hash-table entry layout constants (Figure 10). */
struct HashEntryLayout
{
    /** Search-result slots per entry (the paper picks 2; Figure 11). */
    u32 resultsPerEntry = 2;
    /** Bytes per slot: 8 (url hash) + 8 (score). */
    static constexpr Bytes slotBytes = 16;
    /** Fixed bytes per entry: 8 (query hash) + 8 (flags). */
    static constexpr Bytes fixedBytes = 16;
    /**
     * Container overhead per entry: open-addressing headroom and
     * bookkeeping. This is what makes one-result entries wasteful and
     * puts Figure 11's minimum at two results per entry.
     */
    static constexpr Bytes overheadBytes = 16;

    /** Bytes of one entry. */
    Bytes entryBytes() const
    {
        return fixedBytes + overheadBytes + slotBytes * resultsPerEntry;
    }
};

/**
 * Builds cache contents from a triplet table.
 */
class CacheContentBuilder
{
  public:
    /**
     * @param universe Interprets pair ids and sizes result records.
     * @param layout Hash-table layout used for DRAM footprint estimates.
     */
    explicit CacheContentBuilder(const QueryUniverse &universe,
                                 HashEntryLayout layout = {});

    /** Select contents under a policy. */
    CacheContents build(const TripletTable &table,
                        const ContentPolicy &policy) const;

    /**
     * DRAM footprint of a pair multiset under an arbitrary
     * results-per-entry layout (the Figure 11 sweep).
     */
    Bytes dramFootprint(const std::vector<ScoredPair> &pairs,
                        HashEntryLayout layout) const;

  private:
    /** Assign per-query-normalized scores to a pair prefix. */
    void scorePairs(std::vector<ScoredPair> &pairs) const;

    const QueryUniverse &universe_;
    HashEntryLayout layout_;
};

} // namespace pc::core

#endif // PC_CORE_CACHE_CONTENT_H
