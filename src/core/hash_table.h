/**
 * @file
 * The DRAM query hash table (Figure 10 of the paper).
 *
 * Links query strings to cached search results. Every entry belongs to
 * exactly one query and holds: the query's hash, two search-result slots
 * (each a 64-bit URL hash — which doubles as the database record key —
 * plus a ranking score), and a 64-bit flags word whose low bits record
 * whether the user has ever accessed each slot's (query, result) pair.
 * Queries with more than two results chain additional entries by varying
 * the hash function's second argument (the slot index).
 *
 * Storing exactly two results per entry minimizes the table's memory
 * footprint for the observed results-per-query distribution (Figure 11).
 */

#ifndef PC_CORE_HASH_TABLE_H
#define PC_CORE_HASH_TABLE_H

#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/cache_content.h"
#include "util/hash.h"
#include "util/types.h"

namespace pc::core {

/** One search result as seen from the hash table. */
struct ResultRef
{
    u64 urlHash = 0;          ///< Database record key.
    double score = 0.0;       ///< Current ranking score.
    bool userAccessed = false; ///< Flag bit: user clicked this pair.

    bool operator==(const ResultRef &) const = default;
};

/**
 * Query -> search-result hash table with two-slot entries and chained
 * overflow.
 */
class QueryHashTable
{
  public:
    /** @param layout Entry layout (slots per entry; footprint model). */
    explicit QueryHashTable(HashEntryLayout layout = {});

    /**
     * All cached results for a query, sorted by descending score.
     * Models the paper's measured ~10us lookup by adding a constant to
     * `time` when provided.
     */
    std::vector<ResultRef> lookup(std::string_view query,
                                  SimTime *time = nullptr) const;

    /**
     * lookup() with the query already hashed (query_fnv =
     * fnv1a(query)), into `out` (cleared first) so a caller probing
     * query after query reuses one buffer. Same order, same charge.
     */
    void lookup(u64 query_fnv, std::vector<ResultRef> &out,
                SimTime *time = nullptr) const;

    /** True if the (query, result) pair is cached. */
    bool containsPair(std::string_view query, u64 url_hash) const;

    /**
     * The cached state of one pair (score + accessed flag), or nullopt
     * if it is not cached. Delta application reads this to decide
     * between install, conflict-merge and eviction-skip.
     */
    std::optional<ResultRef> findPair(std::string_view query,
                                      u64 url_hash) const;

    /**
     * Insert a pair; no-op if already present (score left untouched).
     * @return True if newly inserted.
     */
    bool insert(std::string_view query, u64 url_hash, double score,
                bool user_accessed = false);

    /**
     * insert() with the query already hashed (query_fnv = fnv1a(query)):
     * the same single chain walk finds a cached pair (false, table
     * untouched) or inserts it (true).
     */
    bool insert(u64 query_fnv, u64 url_hash, double score,
                bool user_accessed);

    /**
     * Apply a user click (Section 5.3): the clicked pair's score rises
     * by 1 (inserting it with score 1 if absent) and every *unclicked*
     * sibling of the same query decays by e^-lambda. The clicked pair's
     * accessed flag is set.
     *
     * @param[out] top_score If non-null, receives the query's best
     *        score after the click — lookup(query).front().score, taken
     *        from the same chain walk.
     * @return True if the pair already existed before the click.
     */
    bool applyClick(std::string_view query, u64 url_hash, double lambda,
                    double *top_score = nullptr);

    /** applyClick() with the query already hashed (fnv1a(query)). */
    bool applyClick(u64 query_fnv, u64 url_hash, double lambda,
                    double *top_score = nullptr);

    /** Overwrite a pair's score (server-side conflict resolution). */
    bool setScore(std::string_view query, u64 url_hash, double score);

    /**
     * Remove a pair; compacts the query's slot chain so lookups remain
     * contiguous. @return True if the pair was present.
     */
    bool erasePair(std::string_view query, u64 url_hash);

    /** Drop every pair of a query. @return Number of pairs removed. */
    std::size_t eraseQuery(std::string_view query);

    /**
     * Visit every cached (query, result) pair as (query fnv hash,
     * result slot). Used by the server side of the update protocol,
     * which recognizes hashes by re-hashing its own logs.
     */
    template <typename Fn>
    void
    forEachPair(Fn fn) const
    {
        for (const auto &[key, e] : table_) {
            (void)key;
            for (u32 i = 0; i < layout_.resultsPerEntry; ++i) {
                if (e.sr[i].urlHash != 0)
                    fn(e.queryHash, e.sr[i]);
            }
        }
    }

    /** Drop all entries. */
    void
    clear()
    {
        table_.clear();
        pairs_ = 0;
    }

    /** Number of hash-table entries (not pairs). */
    std::size_t entries() const { return table_.size(); }

    /** Number of cached (query, result) pairs. */
    std::size_t pairs() const { return pairs_; }

    /** Modelled DRAM footprint (Figure 11's layout arithmetic). */
    Bytes memoryBytes() const
    {
        return Bytes(table_.size()) * layout_.entryBytes();
    }

    /** Layout in use. */
    const HashEntryLayout &layout() const { return layout_; }

    /**
     * Same layout, same entries in the same iteration order over the
     * same bucket count: the two tables answer, insert and iterate
     * alike from here on.
     */
    bool operator==(const QueryHashTable &other) const;

    /** Modelled latency of one lookup (paper Table 4: ~10us). */
    static constexpr SimTime kLookupLatency = 10 * kMicrosecond;

  private:
    /** In-memory entry; mirrors Figure 10's fields. */
    struct Entry
    {
        u64 queryHash = 0; ///< hash(query) — same for all chain slots.
        ResultRef sr[8];   ///< Up to layout_.resultsPerEntry used.
        u64 flags = 0;     ///< Reserved; accessed bits live in sr[].

        bool operator==(const Entry &) const = default;
    };

    /** Chain-walk bound: slots never exceed this (sanity guard). */
    static constexpr u32 kMaxChain = 1024;

    /** Chain entry `slot` of the query with fnv1a hash `qh`, or null. */
    const Entry *findEntry(u64 qh, u32 slot) const;
    Entry *findEntry(u64 qh, u32 slot);

    /**
     * Append every cached result of a query to `out`, in chain order.
     * @return The chain's entry count.
     */
    u32 chain(u64 qh, std::vector<ResultRef> &out) const;

    /** The cached slot of a pair, or nullptr: one chain walk. */
    const ResultRef *locate(std::string_view query, u64 url_hash) const;

    HashEntryLayout layout_;
    std::unordered_map<u64, Entry> table_;
    std::size_t pairs_ = 0;
};

} // namespace pc::core

#endif // PC_CORE_HASH_TABLE_H
