#include "core/pocket_search.h"

#include "util/hash.h"
#include "util/logging.h"

namespace pc::core {

std::string
cacheModeName(CacheMode m)
{
    switch (m) {
      case CacheMode::Combined:
        return "combined";
      case CacheMode::CommunityOnly:
        return "community-only";
      case CacheMode::PersonalizationOnly:
        return "personalization-only";
    }
    return "?";
}

PocketSearch::PocketSearch(const QueryUniverse &universe,
                           pc::simfs::FlashStore &store,
                           const PocketSearchConfig &cfg)
    : universe_(universe),
      cfg_(cfg),
      table_(cfg.layout),
      db_(store, cfg.db)
{
}

PocketSearch::PocketSearch(const PocketSearch &image,
                           pc::simfs::FlashStore &store)
    : universe_(image.universe_),
      cfg_(image.cfg_),
      table_(image.table_),
      db_(image.db_, store),
      suggest_(image.suggest_),
      stats_(image.stats_)
{
}

SimTime
PocketSearch::tierProbePenalty() const
{
    return cfg_.indexTier == IndexTier::Pcm ? kPcmProbePenalty : 0;
}

void
PocketSearch::loadCommunity(const CacheContents &contents, SimTime &time)
{
    if (cfg_.mode == CacheMode::PersonalizationOnly)
        return;
    std::vector<InstallItem> items;
    items.reserve(contents.pairs.size());
    for (const auto &sp : contents.pairs)
        items.push_back(InstallItem{sp.pair, sp.score, false});
    installPairs(items, time);
}

InstallResult
PocketSearch::installPairs(std::span<const InstallItem> items,
                           SimTime &time)
{
    InstallResult res;
    std::vector<std::pair<std::string_view, double>> staged;
    if (cfg_.enableSuggest)
        staged.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const InstallItem &it = items[i];
        const auto &q = universe_.query(it.pair.query);
        const auto &r = universe_.result(it.pair.result);
        const u64 uh = urlHash(r.url);
        // A conflict stages its score too, as installPair always did: a
        // duplicate in one push ratchets the box to its maximum. For a
        // delta conflict that changes nothing, since the box already
        // holds at least every cached score of its query.
        if (cfg_.enableSuggest)
            staged.emplace_back(q.text, it.score);
        if (!table_.insert(fnv1a(q.text), uh, it.score, it.accessed)) {
            res.conflicts.push_back(i);
            continue;
        }
        ++res.inserted;
        if (db_.addRecord(r, uh, time)) {
            ++res.records;
            res.recordBytes += QueryUniverse::recordSize(r);
        }
    }
    suggest_.insertBulk(std::move(staged));
    return res;
}

bool
PocketSearch::installPair(const workload::PairRef &p, double score,
                          bool user_accessed, SimTime &time)
{
    const InstallItem item{p, score, user_accessed};
    return installPairs({&item, 1}, time).records > 0;
}

void
PocketSearch::restorePairs(const std::vector<SnapshotPair> &pairs)
{
    std::vector<std::pair<std::string_view, double>> batch;
    if (cfg_.enableSuggest)
        batch.reserve(pairs.size());
    for (const auto &p : pairs) {
        table_.insert(p.query, p.urlHash, p.score, p.accessed);
        if (cfg_.enableSuggest)
            batch.emplace_back(p.query, p.score);
    }
    suggest_.insertBulk(std::move(batch));
}

std::optional<ResultRef>
PocketSearch::findPair(const workload::PairRef &p) const
{
    const auto &q = universe_.query(p.query);
    const auto &r = universe_.result(p.result);
    return table_.findPair(q.text, urlHash(r.url));
}

void
PocketSearch::resyncSuggest(const std::string &query_text)
{
    if (!cfg_.enableSuggest)
        return;
    const auto refs = table_.lookup(query_text);
    if (refs.empty())
        suggest_.erase(query_text);
    else
        suggest_.assign(query_text, refs.front().score);
}

bool
PocketSearch::evictPair(const workload::PairRef &p)
{
    const auto &q = universe_.query(p.query);
    const auto &r = universe_.result(p.result);
    if (!table_.erasePair(q.text, urlHash(r.url)))
        return false;
    resyncSuggest(q.text);
    return true;
}

bool
PocketSearch::setPairScore(const workload::PairRef &p, double score)
{
    const auto &q = universe_.query(p.query);
    const auto &r = universe_.result(p.result);
    if (!table_.setScore(q.text, urlHash(r.url), score))
        return false;
    resyncSuggest(q.text);
    return true;
}

SuggestOutcome
PocketSearch::suggestWithResults(std::string_view prefix,
                                 u32 max_suggestions,
                                 u32 results_per_suggestion)
{
    SuggestOutcome out;
    const auto suggestions =
        suggest_.suggest(prefix, max_suggestions, &out.latency);
    for (const auto &sug : suggestions) {
        SuggestOutcome::Row row;
        row.suggestion = sug;
        const auto refs = table_.lookup(sug.query, &out.latency);
        const u32 n =
            std::min<u32>(results_per_suggestion, u32(refs.size()));
        for (u32 i = 0; i < n; ++i) {
            RecordView rec;
            if (db_.fetch(refs[i].urlHash, rec, out.latency))
                row.results.push_back(rec.record());
        }
        out.rows.push_back(std::move(row));
    }
    return out;
}

template <typename OnRecord>
bool
PocketSearch::probe(u64 query_fnv, u32 max_results, SimTime &hash_time,
                    SimTime &fetch_time, OnRecord &&on_record)
{
    ++stats_.lookups;
    hash_time += tierProbePenalty();
    table_.lookup(query_fnv, probeBuf_, &hash_time);
    if (probeBuf_.empty())
        return false;
    ++stats_.queryHits;
    const u32 n = std::min<u32>(max_results, u32(probeBuf_.size()));
    RecordView rec;
    for (u32 i = 0; i < n; ++i) {
        if (db_.fetch(probeBuf_[i].urlHash, rec, fetch_time))
            on_record(probeBuf_[i].urlHash, rec);
    }
    return true;
}

LookupOutcome
PocketSearch::lookup(const std::string &query_text, u32 max_results)
{
    LookupOutcome out;
    out.hit = probe(fnv1a(query_text), max_results, out.hashLookupTime,
                    out.fetchTime, [&out](u64 url_hash, const RecordView &r) {
                        out.results.push_back(r.record());
                        out.urlHashes.push_back(url_hash);
                    });
    return out;
}

PairProbe
PocketSearch::servePair(const workload::PairRef &p, u32 max_results)
{
    PairProbe out;
    out.queryFnv = fnv1a(universe_.query(p.query).text);
    out.urlHash = urlHash(universe_.result(p.result).url);
    out.hit = probe(out.queryFnv, max_results, out.hashLookupTime,
                    out.fetchTime, [](u64, const RecordView &) {});
    for (const ResultRef &r : probeBuf_)
        out.pairCached |= r.urlHash == out.urlHash;
    if (out.pairCached)
        ++stats_.pairHits;
    return out;
}

bool
PocketSearch::containsPair(const workload::PairRef &p) const
{
    const auto &q = universe_.query(p.query);
    const auto &r = universe_.result(p.result);
    return table_.containsPair(q.text, urlHash(r.url));
}

void
PocketSearch::recordClick(const workload::PairRef &p, SimTime &time)
{
    recordClick(p, fnv1a(universe_.query(p.query).text),
                urlHash(universe_.result(p.result).url), time);
}

void
PocketSearch::recordClick(const workload::PairRef &p, u64 query_fnv,
                          u64 url_hash, SimTime &time)
{
    ++stats_.clicksRecorded;
    if (cfg_.mode == CacheMode::CommunityOnly) {
        // Static cache: no learning, no re-ranking state accumulates.
        return;
    }

    double top = 0.0;
    if (!table_.applyClick(query_fnv, url_hash, cfg_.lambda, &top))
        ++stats_.pairsLearned;
    // Keep the box in sync: the clicked query's best score rose.
    if (cfg_.enableSuggest)
        suggest_.insert(universe_.query(p.query).text, top);
    if (db_.addRecord(universe_.result(p.result), url_hash, time))
        ++stats_.recordsLearned;
}

void
PocketSearch::clearTable()
{
    table_.clear();
    suggest_.clear();
}

bool
PocketSearch::sameCache(const PocketSearch &other) const
{
    return &universe_ == &other.universe_ &&
           cfg_.enableSuggest == other.cfg_.enableSuggest &&
           table_ == other.table_ && db_ == other.db_ &&
           suggest_ == other.suggest_;
}

void
PocketSearch::adoptCache(const PocketSearch &installed)
{
    table_ = installed.table_;
    db_.adoptState(installed.db_);
    suggest_ = installed.suggest_;
}

} // namespace pc::core
