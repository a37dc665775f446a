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
 * sync by PocketSearch: installs merge into it in bulk, personalization
 * clicks ratchet a query's score up, evictions and reranks assign it.
 */

#ifndef PC_CORE_SUGGEST_H
#define PC_CORE_SUGGEST_H

#include <string>
#include <string_view>
#include <type_traits>
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
 *
 * Entries are trivially copyable (offset, length, score) records,
 * sorted by query string, that point into one owned character arena.
 * Inserting a query appends its bytes to the arena and memmoves the
 * later records; a copy of the index is two flat buffers. Erased
 * queries leave dead arena bytes behind until they outnumber the live
 * ones, when the arena is repacked in entry order.
 */
class SuggestIndex
{
  public:
    /**
     * Insert a query or raise its score (scores only ratchet up so the
     * box stays stable while the user types and clicks).
     * @return True if the query was new to the index.
     */
    bool insert(std::string_view query, double score);

    /**
     * Set a query's score outright, inserting the query when absent
     * (the resync after an eviction or rerank lowered its best score).
     * @return True if the query was new to the index.
     */
    bool assign(std::string_view query, double score);

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
    bool erase(std::string_view query);

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

    /**
     * Modelled fast-memory footprint: per query its string, its score
     * and 16 bytes of bookkeeping — the model's, not the host's layout.
     */
    Bytes memoryBytes() const
    {
        return liveBytes_ + Bytes(entries_.size()) * (sizeof(double) + 16);
    }

    /** Host arena bytes held, live and dead (at most twice the live). */
    Bytes arenaBytes() const { return arena_.size(); }

    /** Modelled per-keystroke lookup latency (well under a frame). */
    static constexpr SimTime kKeystrokeLatency = 30 * kMicrosecond;

    /** Same entries, arena bytes (dead ones included) and live count. */
    bool operator==(const SuggestIndex &) const = default;

  private:
    struct Entry
    {
        u32 offset; ///< First byte of the query in arena_.
        u32 len;    ///< Query length in bytes.
        double score;

        bool operator==(const Entry &) const = default;
    };
    static_assert(std::is_trivially_copyable_v<Entry>);

    /** The query an entry points at. */
    std::string_view key(const Entry &e) const
    {
        return {arena_.data() + e.offset, e.len};
    }

    /** Index of the first entry >= query, for insert/lookup. */
    std::size_t lowerBound(std::string_view query) const;

    /**
     * The entry of `query`, inserted with `score` when absent; the flag
     * is true if it was inserted.
     */
    std::pair<Entry &, bool> emplace(std::string_view query, double score);

    /** Append a query's bytes to the arena; the entry pointing there. */
    Entry intern(std::string_view query, double score);

    /** Repack the arena once its dead bytes exceed its live bytes. */
    void maybeCompact();

    /** Sorted by query string; binary-searchable by prefix. */
    std::vector<Entry> entries_;
    /** Query bytes, back to back; erased queries leave dead bytes. */
    std::string arena_;
    /** Arena bytes some entry points at. */
    Bytes liveBytes_ = 0;
};

} // namespace pc::core

#endif // PC_CORE_SUGGEST_H
