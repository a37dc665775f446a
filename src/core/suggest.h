/**
 * @file
 * Query auto-suggest with instant results (Figure 1 of the paper).
 *
 * PocketSearch's killer UI trick: because cached results can be
 * retrieved in milliseconds, the phone can show *actual search
 * results* — not just completion strings — inside the auto-suggest box
 * while the user is still typing. This index maps query prefixes to
 * the highest-scored cached queries so each keystroke costs one sorted
 * range scan.
 *
 * The index lives next to the hash table in fast memory and is kept in
 * sync by PocketSearch: community pushes rebuild it, personalization
 * clicks insert into it.
 */

#ifndef PC_CORE_SUGGEST_H
#define PC_CORE_SUGGEST_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.h"

namespace pc::core {

/** One auto-suggest candidate. */
struct Suggestion
{
    std::string query;  ///< Completed query string.
    double score = 0.0; ///< Best ranking score among its results.
};

/**
 * Prefix index over cached query strings.
 */
class SuggestIndex
{
  public:
    /**
     * Insert a query or raise its score (scores only ratchet up so the
     * box stays stable while the user types and clicks).
     * @return True if the query was new to the index.
     */
    bool insert(const std::string &query, double score);

    /**
     * Insert a batch of (query, score) items. The resulting index is
     * exactly the one an `insert` per item, in batch order, produces:
     * a repeated query keeps its maximum score. The batch is sorted
     * once and merged with the existing entries in one pass, so
     * installing n queries costs O(n log n) instead of O(n^2) moves.
     * The views need only outlive the call.
     */
    void insertBulk(std::vector<std::pair<std::string_view, double>> batch);

    /** Remove a query. @return True if it was present. */
    bool erase(const std::string &query);

    /** Drop everything. */
    void clear();

    /**
     * Top-k cached queries starting with `prefix`, best score first.
     * @param[out] time If non-null, accumulates the modelled
     *        per-keystroke latency.
     */
    std::vector<Suggestion> suggest(std::string_view prefix, u32 k,
                                    SimTime *time = nullptr) const;

    /** Number of indexed queries. */
    std::size_t size() const { return entries_.size(); }

    /** Modelled fast-memory footprint (strings + scores). */
    Bytes memoryBytes() const;

    /** Modelled per-keystroke lookup latency (well under a frame). */
    static constexpr SimTime kKeystrokeLatency = 30 * kMicrosecond;

  private:
    struct Entry
    {
        std::string query;
        double score;
    };

    /** Sorted by query string; binary-searchable by prefix. */
    std::vector<Entry> entries_;

    /** Index of the first entry >= query, for insert/lookup. */
    std::size_t lowerBound(std::string_view query) const;
};

} // namespace pc::core

#endif // PC_CORE_SUGGEST_H
