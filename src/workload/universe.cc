#include "workload/universe.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/strings.h"
#include "workload/vocab.h"

namespace pc::workload {

QueryUniverse::QueryUniverse(const UniverseConfig &cfg)
    : cfg_(cfg),
      navSkew_(solveZipfExponent(cfg.navResults, cfg.navHead,
                                 cfg.navHeadShare)),
      nonNavSkew_(solveZipfExponent(cfg.nonNavResults, cfg.nonNavHead,
                                    cfg.nonNavHeadShare)),
      navZipf_(cfg.navResults, navSkew_),
      nonNavZipf_(cfg.nonNavResults, nonNavSkew_),
      navZipfFp_(cfg.navResults, navSkew_ + cfg.featurephoneSkewBoost),
      nonNavZipfFp_(cfg.nonNavResults,
                    nonNavSkew_ + cfg.featurephoneSkewBoost)
{
    pc_assert(cfg_.navResults > 0 && cfg_.nonNavResults > 0,
              "universe needs both result pools");
    pc_assert(cfg_.navVolumeShare > 0.0 && cfg_.navVolumeShare < 1.0,
              "navVolumeShare must be in (0,1)");
    Rng rng(cfg_.seed);
    buildResults();
    buildQueriesAndAliases(rng);
}

void
QueryUniverse::buildResults()
{
    // Room for pass 3's companions too (one per head nav result at
    // most): growing past the pools would double the largest array.
    results_.reserve(u64(cfg_.navResults) + cfg_.nonNavResults +
                     cfg_.navResults / 20);
    // Navigational pool first: ids [0, navResults). Popularity rank ==
    // id within the pool.
    for (u32 i = 0; i < cfg_.navResults; ++i) {
        ResultInfo r;
        const std::string domain = Vocabulary::domainToken(i);
        r.url = "www." + domain + ".com";
        r.title = domain;
        r.description = "Official site of " + domain + ".";
        r.navigational = true;
        r.poolRank = i;
        results_.push_back(std::move(r));
    }
    // Non-navigational pool: ids [navResults, navResults+nonNavResults).
    for (u32 i = 0; i < cfg_.nonNavResults; ++i) {
        ResultInfo r;
        const std::string site = Vocabulary::domainToken(
            u64(i) + 0x100000000ull);
        const std::string page = Vocabulary::word(u64(i) * 3 + 1);
        r.url = "www." + site + ".com/" + page;
        r.title = page + " - " + site;
        r.description = "Information about " + page + " on " + site + ".";
        r.navigational = false;
        r.poolRank = i;
        results_.push_back(std::move(r));
    }
}

void
QueryUniverse::buildQueriesAndAliases(Rng &rng)
{
    // Until layOutLinks, a result's pick entry holds its pass-1 queries
    // (consecutive ids from `begin`, canonical first) and a query's
    // holds the result it was created for. Every later link is an
    // ExtraLink, kept in the order it was added.
    queries_.reserve(results_.size() * 3 / 2);
    queryPick_.reserve(results_.size() * 3 / 2);
    resultPick_.reserve(results_.size());
    std::vector<ExtraLink> result_extras, query_extras;

    auto addQuery = [&](std::string text, u32 result_id) {
        QueryInfo q;
        q.text = std::move(text);
        queries_.push_back(std::move(q));
        queryPick_.push_back({result_id, 1, 0.0});
    };

    // Pass 1: canonical query + aliases for every result.
    for (u32 rid = 0; rid < results_.size(); ++rid) {
        ResultInfo &r = results_[rid];
        std::string canonical;
        if (r.navigational) {
            // Query string is a substring of the URL by construction:
            // exactly the paper's navigational-query definition.
            canonical = r.title;
        } else {
            canonical = Vocabulary::topicPhrase(rid * 7 + 3, 9'000);
            // Very rarely the phrase could coincide with part of the
            // URL; force non-navigational by appending a word.
            if (contains(r.url, canonical))
                canonical += " facts";
        }

        // Aliases: Poisson-ish count with the configured mean, heavier
        // for popular results (they attract more variant spellings).
        u32 aliases = 0;
        double expected = cfg_.meanAliases;
        // First ~5% of each pool gets twice the alias rate.
        const u32 pool_rank = r.navigational ? rid : rid - cfg_.navResults;
        const u32 pool_size =
            r.navigational ? cfg_.navResults : cfg_.nonNavResults;
        if (pool_rank < pool_size / 20)
            expected *= 2.7;
        while (expected > 0.0) {
            if (rng.chance(std::min(expected, 1.0)))
                ++aliases;
            expected -= 1.0;
        }

        resultPick_.push_back({u32(queries_.size()), 1 + aliases, 0.0});
        addQuery(canonical, rid);
        std::vector<std::string> used = {canonical};
        for (u32 a = 0; a < aliases; ++a) {
            const AliasKind kind = rng.chance(0.6)
                ? AliasKind::Misspelling : AliasKind::Shortcut;
            // Salts can collide on short words (few corruption sites);
            // retry until the alias is distinct from earlier ones.
            std::string alias;
            for (u64 salt = a + 1;; salt += 17) {
                alias = makeAlias(canonical, kind, salt);
                if (std::find(used.begin(), used.end(), alias) ==
                    used.end())
                    break;
                if (salt > a + 1 + 17 * 8) {
                    alias += char('a' + char(a % 26));
                    break;
                }
            }
            used.push_back(alias);
            addQuery(std::move(alias), rid);
        }
    }

    // Passes 2 and 3 only ever touch the aliases of the result whose
    // turn it is, and those still carry just the one result they were
    // created with: a result's own turn is the only one that links its
    // aliases anywhere.

    // Pass 2: shared queries — non-nav canonical queries that also map
    // to a second non-nav result (Table 3's "michael jackson" clicking
    // through to both imdb and azlyrics). Head queries split clicks far
    // more often than tail ones, which is what makes two-result hash
    // entries pay off (Figure 11).
    for (u32 rid = cfg_.navResults; rid < results_.size(); ++rid) {
        const u32 pool_rank = rid - cfg_.navResults;
        const bool head = pool_rank < cfg_.nonNavResults / 20;
        const double prob =
            head ? cfg_.sharedHeadProb : cfg_.sharedQueryProb;
        if (!rng.chance(prob))
            continue;
        // The canonical query of result rid also clicks through to
        // another non-nav result of similar popularity ("michael
        // jackson" -> both imdb and azlyrics are popular). Head queries
        // pair with nearby head results so both pairs are cacheable.
        const u32 qid = resultPick_[rid].begin;
        const u32 span = head
            ? std::max<u32>(cfg_.nonNavResults / 100, 2)
            : std::max<u32>(cfg_.nonNavResults / 10, 2);
        u32 other = cfg_.navResults +
            u32((u64(pool_rank) + 1 + rng.below(span)) %
                cfg_.nonNavResults);
        if (other == rid)
            continue;
        // Secondary mapping carries a modest share of the other
        // result's volume and of the query's clicks.
        query_extras.push_back({qid, other, 0.95});
        result_extras.push_back({other, qid, 0.25});
        // Aliases of rid see the same corrected results page, so they
        // split clicks across the same two results.
        for (u32 aq = qid + 1; aq < qid + resultPick_[rid].count; ++aq) {
            query_extras.push_back({aq, other, 0.95});
            result_extras.push_back({other, aq, 0.05});
        }
    }

    // Pass 3: head navigational queries split their clicks between the
    // main site and a companion destination (the mobile variant):
    // "facebook" -> www.facebook.com and m.facebook.com. Companions are
    // appended outside the rank-sampled pools and only receive clicks
    // through query redistribution.
    const u32 nav_head = std::min(cfg_.navResults,
                                  u32(cfg_.navResults / 20));
    for (u32 rid = 0; rid < nav_head; ++rid) {
        if (!rng.chance(cfg_.navSharedHeadProb))
            continue;
        const u32 qid = resultPick_[rid].begin;
        ResultInfo companion;
        const std::string &domain = results_[rid].title;
        companion.url = "m." + domain + ".com";
        companion.title = domain + " mobile";
        companion.description = "Mobile site of " + domain + ".";
        companion.navigational = true; // query is a URL substring
        companion.poolRank = kNoPoolRank;
        results_.push_back(std::move(companion));
        const u32 cid = u32(results_.size() - 1);
        resultPick_.push_back({0, 0, 0.0}); // every link is an extra
        result_extras.push_back({cid, qid, 1.0});
        query_extras.push_back({qid, cid, 0.95});
        // Aliases of the main site split across both destinations too.
        for (u32 aq = qid + 1; aq < qid + resultPick_[rid].count; ++aq) {
            query_extras.push_back({aq, cid, 0.95});
            result_extras.push_back({cid, aq, 0.10});
        }
    }

    layOutLinks(std::move(result_extras), std::move(query_extras));
}

void
QueryUniverse::layOutLinks(std::vector<ExtraLink> result_extras,
                           std::vector<ExtraLink> query_extras)
{
    // Each record's links: its pass-1 links, then its extras in the
    // order they were added — the order its own vector used to append
    // them, so every pick walks the same weights in the same order.
    const auto by_owner = [](const ExtraLink &a, const ExtraLink &b) {
        return a.owner < b.owner;
    };
    std::stable_sort(result_extras.begin(), result_extras.end(), by_owner);
    std::stable_sort(query_extras.begin(), query_extras.end(), by_owner);
    std::size_t total = result_extras.size() + queries_.size() +
                        query_extras.size();
    for (u32 rid = 0; rid < results_.size(); ++rid)
        total += resultPick_[rid].count;
    pc_assert(total <= ~u32(0), "universe links overflow u32");
    links_.resize(total);

    u32 at = 0;
    // Appends `owner`'s extras, then points its view and its pick entry
    // at the links written since `begin`.
    const auto finish = [&](u32 owner, u32 begin, PickEntry &e,
                            LinkSpan &view, auto &x, const auto &extras) {
        for (; x != extras.end() && x->owner == owner; ++x)
            links_[at++] = {x->id, x->weight};
        pc_assert(at > begin, "record with no links");
        view = LinkSpan(links_.data() + begin, at - begin);
        e.count = at - begin;
        e.total = 0.0;
        for (const auto &[id, w] : view)
            e.total += w;
        e.begin = e.count == 1 ? view.front().first : begin;
    };

    // Pass 1's click shares: the canonical query alone carries all of
    // them; with aliases it keeps canonicalWeight and the aliases split
    // the rest.
    const double alias_total = 1.0 - cfg_.canonicalWeight;
    auto rx = result_extras.cbegin();
    for (u32 rid = 0; rid < results_.size(); ++rid) {
        PickEntry &e = resultPick_[rid];
        const u32 begin = at;
        for (u32 i = 0; i < e.count; ++i) {
            const double w = e.count == 1 ? 1.0
                : i == 0                  ? cfg_.canonicalWeight
                                          : alias_total / (e.count - 1);
            links_[at++] = {e.begin + i, w};
        }
        finish(rid, begin, e, results_[rid].queries, rx, result_extras);
    }
    auto qx = query_extras.cbegin();
    for (u32 qid = 0; qid < queries_.size(); ++qid) {
        PickEntry &e = queryPick_[qid];
        const u32 begin = at;
        links_[at++] = {e.begin, 1.0};
        finish(qid, begin, e, queries_[qid].results, qx, query_extras);
    }
    pc_assert(at == links_.size(), "universe links miscounted");
}

bool
QueryUniverse::isNavigationalPair(const PairRef &p) const
{
    return contains(results_.at(p.result).url, queries_.at(p.query).text);
}

u32
QueryUniverse::pick(const PickEntry &e, Rng &rng) const
{
    if (e.count == 1)
        return e.begin;
    const auto *links = links_.data() + e.begin;
    double x = rng.uniform() * e.total;
    for (u32 i = 0; i < e.count; ++i) {
        x -= links[i].second;
        if (x <= 0.0)
            return links[i].first;
    }
    return links[e.count - 1].first;
}

PairRef
QueryUniverse::samplePair(Rng &rng, DeviceType device, u32 epoch) const
{
    const bool nav = rng.chance(cfg_.navVolumeShare);
    u32 rid;
    if (device == DeviceType::Featurephone) {
        rid = nav ? navId(navZipfFp_.sample(rng))
                  : nonNavId(nonNavZipfFp_.sample(rng), epoch);
    } else {
        rid = nav ? navId(navZipf_.sample(rng))
                  : nonNavId(nonNavZipf_.sample(rng), epoch);
    }
    const u32 qid = pick(resultPick_[rid], rng);
    return PairRef{qid, pick(queryPick_[qid], rng)};
}

PairRef
QueryUniverse::samplePairHabitual(Rng &rng, DeviceType device,
                                  double nav_share, u32 epoch) const
{
    // With probability mainstreamShare the habit is a mainstream
    // destination: the pool's Zipf conditioned on its mainstream head.
    // Otherwise it is a personal oddity from the full distribution.
    if (!rng.chance(cfg_.mainstreamShare))
        return samplePair(rng, device, epoch);

    if (nav_share < 0.0)
        nav_share = cfg_.habitNavShare;
    const bool nav = rng.chance(nav_share);
    const ZipfSampler &z = (device == DeviceType::Featurephone)
        ? (nav ? navZipfFp_ : nonNavZipfFp_)
        : (nav ? navZipf_ : nonNavZipf_);
    const u64 head = std::min<u64>(
        nav ? cfg_.habitNavHead : cfg_.habitNonNavHead, z.size());
    // Rejection-sample the conditional head distribution; the head
    // carries a large share of the mass, so this terminates quickly.
    u64 rank = z.sample(rng);
    for (int t = 0; t < 64 && rank >= head; ++t)
        rank = z.sample(rng);
    if (rank >= head)
        rank = rank % head;
    const u32 rid = nav ? navId(rank) : nonNavId(rank, epoch);
    // Routine queries are well-practiced: usually the canonical string.
    const PickEntry &e = resultPick_[rid];
    u32 qid;
    if (rng.chance(cfg_.habitCanonicalBias))
        qid = e.count == 1 ? e.begin : links_[e.begin].first;
    else
        qid = pick(e, rng);
    return PairRef{qid, pick(queryPick_[qid], rng)};
}

double
QueryUniverse::pairProbability(const PairRef &p) const
{
    // P(pair) = P(pick query) * P(final result | query): the clicked
    // result is redistributed among the query's results, so the final
    // factor is independent of which result was popularity-sampled.
    const QueryInfo &q = queries_.at(p.query);

    auto resultProb = [&](u32 rid) {
        const ResultInfo &r = results_.at(rid);
        if (r.poolRank == kNoPoolRank)
            return 0.0; // companions are never rank-sampled
        const bool nav = r.navigational;
        const double pool_share =
            nav ? cfg_.navVolumeShare : 1.0 - cfg_.navVolumeShare;
        return pool_share * (nav ? navZipf_.pmf(r.poolRank)
                                 : nonNavZipf_.pmf(r.poolRank));
    };

    // P(pick query q) over all results q is attached to.
    double p_query = 0.0;
    for (const auto &[rid, w] : q.results) {
        (void)w;
        const ResultInfo &r = results_.at(rid);
        double total = 0.0, mine = 0.0;
        for (const auto &[qid, qw] : r.queries) {
            total += qw;
            if (qid == p.query)
                mine += qw;
        }
        if (total > 0.0)
            p_query += resultProb(rid) * (mine / total);
    }

    // P(final result | query).
    double total_w = 0.0, final_w = 0.0;
    for (const auto &[rid, w] : q.results) {
        total_w += w;
        if (rid == p.result)
            final_w += w;
    }
    if (total_w <= 0.0)
        return 0.0;
    return p_query * (final_w / total_w);
}

Bytes
QueryUniverse::recordSize(const ResultInfo &r)
{
    // Record layout in the on-phone DB: title, description, URL, plus a
    // little framing — the paper quotes ~500 bytes on average. Synthetic
    // strings are shorter than real snippets, so pad to a realistic
    // minimum.
    const Bytes raw = r.title.size() + r.description.size() +
                      r.url.size() + 16;
    return std::max<Bytes>(raw, 480);
}

} // namespace pc::workload
