/**
 * @file
 * PocketSearch — the search/advertisement pocket cloudlet (Section 5).
 *
 * Combines the community cache (popular query/result pairs pushed from
 * the server's log analysis) with the personalization component (pairs
 * the user accessed, plus click-driven re-ranking) over the DRAM hash
 * table and the flash result database. Operating modes isolate each
 * component for the paper's Figure 17 ablation.
 */

#ifndef PC_CORE_POCKET_SEARCH_H
#define PC_CORE_POCKET_SEARCH_H

#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cache_content.h"
#include "core/hash_table.h"
#include "core/result_db.h"
#include "core/suggest.h"

namespace pc::core {

/** Which cache components are active (Figure 17's three curves). */
enum class CacheMode
{
    Combined,            ///< Community warm start + personalization.
    CommunityOnly,       ///< Static community cache; no learning.
    PersonalizationOnly, ///< Cold start; caches only what the user clicks.
};

/** Display name of a mode. */
std::string cacheModeName(CacheMode m);

/**
 * Where the data index (hash table + suggest index) lives
 * (Section 3.3's tier discussion).
 */
enum class IndexTier
{
    /** Volatile DRAM; the index reloads from NAND at every boot. */
    DramFromNand,
    /** Persistent PCM; instantly available at boot, slower probes. */
    Pcm,
};

/** PocketSearch configuration. */
struct PocketSearchConfig
{
    CacheMode mode = CacheMode::Combined;
    /** Ranking decay constant lambda of Equation (2). */
    double lambda = 0.10;
    /** Maintain the Figure-1 auto-suggest prefix index. */
    bool enableSuggest = true;
    /** Index placement (Section 3.3). */
    IndexTier indexTier = IndexTier::DramFromNand;
    /** Hash-table entry layout. */
    HashEntryLayout layout{};
    /** Result database shape. */
    DbConfig db{};
};

/** Outcome of a query lookup. */
struct LookupOutcome
{
    bool hit = false;          ///< Query found in the hash table.
    SimTime hashLookupTime = 0; ///< Table probe latency (~10us).
    SimTime fetchTime = 0;      ///< Flash retrieval latency.
    /** Fetched records, ranked by descending score. */
    std::vector<ResultRecord> results;
    /** Ranked url hashes (parallel to `results`). */
    std::vector<u64> urlHashes;
};

/**
 * What PocketSearch::servePair found: the serve path's probe, which
 * charges exactly what lookup() charges but keeps no records.
 */
struct PairProbe
{
    bool hit = false;           ///< Query found in the hash table.
    /** The probed pair itself is cached, read off the same chain walk. */
    bool pairCached = false;
    SimTime hashLookupTime = 0; ///< Table probe latency (~10us).
    SimTime fetchTime = 0;      ///< Flash retrieval latency.
    u64 queryFnv = 0;           ///< fnv1a of the pair's query text.
    u64 urlHash = 0;            ///< urlHash of the pair's result URL.
};

/** Auto-suggest output: completions plus their instant results. */
struct SuggestOutcome
{
    /** One box row: the completed query and its fetched top results. */
    struct Row
    {
        Suggestion suggestion;
        std::vector<ResultRecord> results;
    };

    std::vector<Row> rows;
    SimTime latency = 0; ///< Keystroke probe + flash fetches.
};

/** One persisted index entry (see core/persistence.h). */
struct SnapshotPair
{
    std::string query;
    u64 urlHash = 0;
    double score = 0.0;
    bool accessed = false;
};

/** One pair for PocketSearch::installPairs. */
struct InstallItem
{
    workload::PairRef pair;
    double score = 0.0;
    bool accessed = false; ///< User-accessed flag of a new table entry.
};

/** What one PocketSearch::installPairs call did. */
struct InstallResult
{
    std::size_t inserted = 0; ///< Pairs new to the hash table.
    std::size_t records = 0;  ///< Records newly written to flash.
    Bytes recordBytes = 0;    ///< Their modelled sizes, summed.
    /** Indices of items whose pair was already cached, in order. */
    std::vector<std::size_t> conflicts;
};

/** Cumulative serving statistics. */
struct ServeStats
{
    u64 lookups = 0;
    u64 queryHits = 0;  ///< Query string found.
    u64 pairHits = 0;   ///< Query found AND clicked result cached.
    u64 clicksRecorded = 0;
    u64 pairsLearned = 0;   ///< Pairs added by personalization.
    u64 recordsLearned = 0; ///< DB records added by personalization.
};

/**
 * The on-phone search cache.
 */
class PocketSearch
{
  public:
    /**
     * @param universe Interprets pair ids (strings, URLs, records).
     * @param store Flash file store for the result database.
     * @param cfg Configuration.
     */
    PocketSearch(const QueryUniverse &universe,
                 pc::simfs::FlashStore &store,
                 const PocketSearchConfig &cfg = {});

    /**
     * Clone `image` onto `store`, itself a clone of the image's store:
     * the hash table (bucket count and node order included, so later
     * inserts iterate exactly as on the image), the result database,
     * auto-suggest and serving stats are copied.
     */
    PocketSearch(const PocketSearch &image, pc::simfs::FlashStore &store);

    /**
     * Install community contents (the overnight push) through
     * installPairs. In PersonalizationOnly mode this is a no-op — that
     * cache starts cold.
     * @param[out] time Accumulates the flash write latency of the push.
     */
    void loadCommunity(const CacheContents &contents, SimTime &time);

    /**
     * The one install path: community push, delta adds and the cache
     * manager's rebuild all come through here. Per item, in order: one
     * table walk inserts the pair, or finds it already cached (a
     * conflict: table and flash untouched, index reported); a new
     * pair's record is appended to flash unless present; the item's
     * (query, score) is staged for auto-suggest. The staged entries
     * merge in one SuggestIndex::insertBulk before the call returns, so
     * a later resyncSuggest (evictPair, setPairScore) sees them all.
     * @param[out] time Accumulates flash write latency.
     */
    InstallResult installPairs(std::span<const InstallItem> items,
                               SimTime &time);

    /**
     * Look up a query string; on a hit, fetch up to `max_results`
     * top-ranked records from flash.
     */
    LookupOutcome lookup(const std::string &query_text,
                         u32 max_results = 2);

    /**
     * The serve path's probe of a universe pair: lookup() of the
     * pair's query, with the same charges, stats, flash reads and
     * fault draws, plus whether the pair itself is cached. Each string
     * is hashed once, both hashes are returned for recordClick, and
     * nothing is allocated once the reused chain buffer is warm: the
     * record fetches are charged (ResultDatabase::chargeFetch), not
     * read out.
     */
    PairProbe servePair(const workload::PairRef &p, u32 max_results = 2);

    /** True if the exact (query, result) pair is cached. */
    bool containsPair(const workload::PairRef &p) const;

    /**
     * Record a user click-through for a pair: updates ranking
     * (Equations 1/2) and, when personalization is active, caches the
     * pair and its record if new.
     * @param[out] time Accumulates flash write latency for learning.
     */
    void recordClick(const workload::PairRef &p, SimTime &time);

    /**
     * recordClick() with the pair's hashes already computed (a
     * servePair probe's queryFnv and urlHash).
     */
    void recordClick(const workload::PairRef &p, u64 query_fnv,
                     u64 url_hash, SimTime &time);

    /**
     * installPairs for one pair.
     * @param[out] time Accumulates flash write latency.
     * @return True if the database gained a new record.
     */
    bool installPair(const workload::PairRef &p, double score,
                     bool user_accessed, SimTime &time);

    /**
     * Reinstate index entries from a persisted snapshot (the record
     * bytes are already on flash, so nothing is written): the table
     * pair by pair, then the auto-suggest index in one bulk merge.
     */
    void restorePairs(const std::vector<SnapshotPair> &pairs);

    /** Cached state of a pair (score, accessed), or nullopt. */
    std::optional<ResultRef> findPair(const workload::PairRef &p) const;

    /**
     * Remove one pair from the index (delta eviction). The flash
     * record stays — other queries may reference it, and the database
     * is append-mostly anyway. Keeps auto-suggest in sync.
     * @return True if the pair was cached.
     */
    bool evictPair(const workload::PairRef &p);

    /**
     * Overwrite one pair's ranking score (delta rerank / conflict
     * resolution), resyncing the auto-suggest entry to the query's new
     * best score. @return True if the pair was cached.
     */
    bool setPairScore(const workload::PairRef &p, double score);

    /**
     * Figure 1: auto-suggest with instant results. For each of the
     * top `max_suggestions` cached queries completing `prefix`, fetch
     * up to `results_per_suggestion` top-ranked records.
     */
    SuggestOutcome suggestWithResults(std::string_view prefix,
                                      u32 max_suggestions = 3,
                                      u32 results_per_suggestion = 1);

    /** The auto-suggest index (empty when disabled). */
    const SuggestIndex &suggestIndex() const { return suggest_; }

    /** Per-probe penalty of the configured tier over DRAM. */
    SimTime tierProbePenalty() const;

    /** PCM probes cost roughly this much extra per lookup. */
    static constexpr SimTime kPcmProbePenalty = 20 * kMicrosecond;
    /** Index deserialization cost per byte when reloading from NAND. */
    static constexpr SimTime kIndexParsePerByte = 15;

    /** Cached pair count. */
    std::size_t pairs() const { return table_.pairs(); }
    /** Hash-table DRAM footprint. */
    Bytes dramBytes() const { return table_.memoryBytes(); }
    /** Result database logical size. */
    Bytes flashLogicalBytes() const { return db_.logicalBytes(); }
    /** Result database physical (block-rounded) size. */
    Bytes flashPhysicalBytes() const { return db_.physicalBytes(); }

    /**
     * Serving statistics. They only ever grow: a device mirrors them
     * into its registry as "core.search.*".
     */
    const ServeStats &stats() const { return stats_; }

    /** Mutable hash table (cache manager / tests). */
    QueryHashTable &table() { return table_; }
    /** Hash table. */
    const QueryHashTable &table() const { return table_; }
    /** Mutable result database (cache manager / tests). */
    ResultDatabase &db() { return db_; }
    /** Result database. */
    const ResultDatabase &db() const { return db_; }
    /** Universe. */
    const QueryUniverse &universe() const { return universe_; }
    /** Configuration. */
    const PocketSearchConfig &config() const { return cfg_; }

    /** Drop all hash-table contents (cache manager rebuild). */
    void clearTable();

    /**
     * True if this cache interprets pairs through the same universe,
     * stages auto-suggest alike and holds exactly `other`'s hash table,
     * result database and auto-suggest index. Serving stats are not
     * compared: no install reads or writes them.
     */
    bool sameCache(const PocketSearch &other) const;

    /**
     * Copy `installed`'s hash table, database location map and
     * auto-suggest index into this cache; serving stats, configuration
     * and the store binding stay. The caller adopts the store and
     * flash state alongside (MobileDevice's install image).
     */
    void adoptCache(const PocketSearch &installed);

  private:
    /**
     * The probe lookup() and servePair() share, so both charge alike:
     * count the lookup, walk the query's chain into probeBuf_ (ranked)
     * and hand each of the up to `max_results` top-ranked url hashes
     * to `fetch(url_hash)`, which charges (and may read) its record.
     * @return True on a query hit.
     */
    template <typename Fetch>
    bool probe(u64 query_fnv, u32 max_results, SimTime &hash_time,
               Fetch &&fetch);

    /**
     * Re-derive a query's auto-suggest score after an evict/rerank.
     * SuggestIndex::insert only ratchets scores upward, so the entry is
     * assigned the query's current best table score, or erased when no
     * result is left — exactly the state a fresh install of the same
     * contents produces.
     */
    void resyncSuggest(const std::string &query_text);

    const QueryUniverse &universe_;
    PocketSearchConfig cfg_;
    QueryHashTable table_;
    ResultDatabase db_;
    SuggestIndex suggest_;
    ServeStats stats_;
    /** probe()'s ranked chain; reused so a probe does not allocate. */
    std::vector<ResultRef> probeBuf_;
};

static_assert(!std::is_copy_constructible_v<PocketSearch>);

} // namespace pc::core

#endif // PC_CORE_POCKET_SEARCH_H
