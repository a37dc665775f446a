/**
 * @file
 * The synthetic query/search-result universe.
 *
 * Models the structural facts the paper's log analysis reports
 * (Section 4 and 5.1):
 *
 *  - clicked-result popularity is head-heavy: the top ~4000 results carry
 *    ~60% of click volume (Figure 4b);
 *  - there are ~1.5 distinct query strings per result (6000 queries vs
 *    4000 results for the same 60% share) because users misspell and
 *    abbreviate ("yotube", "boa");
 *  - navigational queries are far more concentrated than
 *    non-navigational ones (top 5000 nav ≈ 90% of nav volume; top 5000
 *    non-nav < 30%);
 *  - some queries legitimately map to several results ("michael
 *    jackson" -> imdb bio and azlyrics, Table 3);
 *  - featurephone traffic is more concentrated than smartphone traffic.
 *
 * The universe separates navigational and non-navigational pools, each
 * with its own truncated-Zipf popularity, and calibrates the exponents
 * from the paper's published head-share targets.
 */

#ifndef PC_WORKLOAD_UNIVERSE_H
#define PC_WORKLOAD_UNIVERSE_H

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace pc::workload {

/** Device class of a log event's origin (Figure 4 series split). */
enum class DeviceType
{
    Featurephone,
    Smartphone,
};

/** Pool rank of companion results that are never rank-sampled. */
inline constexpr u32 kNoPoolRank = ~u32(0);

/** (linked id, weight) links of a record: a view into its universe. */
using LinkSpan = std::span<const std::pair<u32, double>>;

/** A distinct clickable search result (landing page). */
struct ResultInfo
{
    std::string url;         ///< Full address, e.g. "www.vasoti.com".
    std::string title;       ///< Hyperlink text.
    std::string description; ///< Result-page snippet.
    bool navigational;       ///< Reached mostly via navigational queries.
    /**
     * Popularity rank within the result's pool, or kNoPoolRank for
     * companion results that only receive redistributed clicks.
     */
    u32 poolRank = kNoPoolRank;
    /**
     * Queries that click through to this result, with the share of the
     * result's click volume each query carries (sums to ~1).
     */
    LinkSpan queries;
};

/** A distinct query string. */
struct QueryInfo
{
    std::string text; ///< Normalized (lower-case) query string.
    /** Results this query clicks through to, with selection weights. */
    LinkSpan results;
};

/** One (query, clicked-result) pair, the unit of caching. */
struct PairRef
{
    u32 query;
    u32 result;

    bool operator==(const PairRef &o) const = default;
};

/** Universe shape parameters. */
struct UniverseConfig
{
    u64 seed = 42;

    /** Distinct navigational landing pages. */
    u32 navResults = 40'000;
    /** Distinct non-navigational landing pages. */
    u32 nonNavResults = 160'000;

    /** Fraction of total click volume that is navigational. */
    double navVolumeShare = 0.50;

    /**
     * Head-share calibration targets (paper Figure 4): the top `head`
     * results of each pool carry `share` of that pool's volume.
     */
    u64 navHead = 5'000;
    double navHeadShare = 0.55;
    u64 nonNavHead = 5'000;
    double nonNavHeadShare = 0.06;

    /** Mean number of alias queries added per result (1.5 q/result). */
    double meanAliases = 0.3;
    /** P(tail non-nav query also maps to a second result). */
    double sharedQueryProb = 0.03;
    /** P(head non-nav query maps to a second result). Popular queries
     *  ("michael jackson") routinely split clicks across two results. */
    double sharedHeadProb = 0.85;
    /** P(head nav query also clicks through to a related non-nav page). */
    double navSharedHeadProb = 0.85;
    /** Click weight of the canonical query vs its aliases. */
    double canonicalWeight = 0.50;

    /**
     * Featurephone skew boost: featurephone draws use a Zipf exponent
     * higher by this amount (their traffic is more concentrated).
     */
    double featurephoneSkewBoost = 0.12;

    /** Probability that a habitual pair is a mainstream destination. */
    double mainstreamShare = 0.90;
    /**
     * Topic drift: each epoch (month) the top `trendStride` ranks of
     * the non-navigational pool are taken over by an epoch-specific
     * set of trending topics drawn from the deep tail ("michael
     * jackson" spikes, then fades). Navigational popularity (brands)
     * stays put; epoch 0 is undisturbed.
     */
    u32 trendStride = 150;
    /** Mainstream head sizes (pool ranks) habitual draws come from. */
    u32 habitNavHead = 2'400;
    u32 habitNonNavHead = 1'600;
    /**
     * Probability a habitual pair uses the result's canonical query:
     * routine queries are well-practiced, rarely misspelled.
     */
    double habitCanonicalBias = 0.10;
    /**
     * Navigational share of habitual draws. Routine destinations are
     * mostly navigational ("facebook", "youtube"); exploration follows
     * navVolumeShare instead.
     */
    double habitNavShare = 0.72;
};

/**
 * Immutable query/result universe plus popularity samplers.
 *
 * Records link to each other through views into one flat array the
 * universe owns, so a universe is not copyable.
 */
class QueryUniverse
{
  public:
    /** Build a universe deterministically from the config. */
    explicit QueryUniverse(const UniverseConfig &cfg);

    QueryUniverse(const QueryUniverse &) = delete;
    QueryUniverse &operator=(const QueryUniverse &) = delete;

    /** Number of distinct results. */
    u32 numResults() const { return u32(results_.size()); }
    /** Number of distinct queries. */
    u32 numQueries() const { return u32(queries_.size()); }

    /** Result record. */
    const ResultInfo &result(u32 id) const { return results_.at(id); }
    /** Query record. */
    const QueryInfo &query(u32 id) const { return queries_.at(id); }

    /**
     * True if the paper's navigational-query test holds: the query
     * string is a substring of the clicked URL (footnote 1).
     */
    bool isNavigationalPair(const PairRef &p) const;

    /**
     * Sample one community (query, result) click.
     *
     * @param rng Random stream.
     * @param device Featurephone draws are more concentrated.
     */
    PairRef samplePair(Rng &rng, DeviceType device,
                       u32 epoch = 0) const;

    /**
     * Sample a *habitual* pair: users' routine destinations
     * ("facebook", "weather") sit far higher in the popularity curve
     * than their exploratory searches. With probability
     * cfg.mainstreamShare this draws from the pool Zipf conditioned on
     * its mainstream head; otherwise from the full distribution (a
     * personal oddity).
     */
    /**
     * @param nav_share Override of cfg.habitNavShare for this draw
     *        (negative = use the config value). Heavy users' extra
     *        habits skew non-navigational (diversification).
     */
    PairRef samplePairHabitual(Rng &rng, DeviceType device,
                               double nav_share = -1.0,
                               u32 epoch = 0) const;

    /** Configuration the universe was built from. */
    const UniverseConfig &config() const { return cfg_; }

    /**
     * Ground-truth probability of a pair under the smartphone community
     * model (for calibration tests).
     */
    double pairProbability(const PairRef &p) const;

    /** Serialized size of a result record in the on-phone DB (bytes). */
    static Bytes recordSize(const ResultInfo &r);

  private:
    /**
     * What a weighted pick over one record's links reads, 16 B: the
     * links are links_[begin, begin + count), except that for count ==
     * 1 `begin` is the one linked id itself; `total` is the weight sum
     * in link order.
     */
    struct PickEntry
    {
        u32 begin;
        u32 count;
        double total;
    };

    /** A link added after pass 1, to be laid out behind its owner's. */
    struct ExtraLink
    {
        u32 owner;
        u32 id;
        double weight;
    };

    void buildResults();
    void buildQueriesAndAliases(Rng &rng);
    /** Lay the links out in links_ and point records and picks at them. */
    void layOutLinks(std::vector<ExtraLink> result_extras,
                     std::vector<ExtraLink> query_extras);

    /** Pool-local rank -> universe result id. */
    u32 navId(u64 rank) const { return u32(rank); }
    /** Non-nav rank -> id, with the epoch's trending slice applied. */
    u32
    nonNavId(u64 rank, u32 epoch = 0) const
    {
        if (epoch == 0 || rank >= cfg_.trendStride)
            return u32(cfg_.navResults + rank);
        // Trending slice: this epoch's hot topics come from the deep
        // tail, displacing the nominal head ranks.
        const u64 half = cfg_.nonNavResults / 2;
        const u64 id =
            half + mix64(u64(epoch) * 1000003ull + rank) % half;
        return u32(cfg_.navResults + id);
    }

    /**
     * Pick one linked id by weight: a result's query by click share, or
     * the clicked result of a query by its result weights.
     */
    u32 pick(const PickEntry &e, Rng &rng) const;

    UniverseConfig cfg_;
    std::vector<ResultInfo> results_;
    std::vector<QueryInfo> queries_;
    /** Every result's query links, then every query's result links. */
    std::vector<std::pair<u32, double>> links_;
    std::vector<PickEntry> resultPick_; ///< By result id.
    std::vector<PickEntry> queryPick_;  ///< By query id.

    double navSkew_;
    double nonNavSkew_;
    ZipfSampler navZipf_;
    ZipfSampler nonNavZipf_;
    ZipfSampler navZipfFp_;    ///< Featurephone (boosted skew).
    ZipfSampler nonNavZipfFp_;
};

} // namespace pc::workload

#endif // PC_WORKLOAD_UNIVERSE_H
