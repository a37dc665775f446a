#include "core/hash_table.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pc::core {

QueryHashTable::QueryHashTable(HashEntryLayout layout)
    : layout_(layout)
{
    pc_assert(layout_.resultsPerEntry >= 1 && layout_.resultsPerEntry <= 8,
              "resultsPerEntry must be in [1, 8]");
}

bool
QueryHashTable::operator==(const QueryHashTable &other) const
{
    return layout_.resultsPerEntry == other.layout_.resultsPerEntry &&
           pairs_ == other.pairs_ &&
           table_.bucket_count() == other.table_.bucket_count() &&
           std::equal(table_.begin(), table_.end(), other.table_.begin(),
                      other.table_.end());
}

const QueryHashTable::Entry *
QueryHashTable::findEntry(u64 qh, u32 slot) const
{
    const auto it = table_.find(querySlotKey(qh, slot));
    // Guard against key collisions between different queries: verify the
    // stored query hash matches.
    if (it == table_.end() || it->second.queryHash != qh)
        return nullptr;
    return &it->second;
}

QueryHashTable::Entry *
QueryHashTable::findEntry(u64 qh, u32 slot)
{
    return const_cast<Entry *>(
        static_cast<const QueryHashTable *>(this)->findEntry(qh, slot));
}

u32
QueryHashTable::chain(u64 qh, std::vector<ResultRef> &out) const
{
    u32 slot = 0;
    for (; slot < kMaxChain; ++slot) {
        const Entry *e = findEntry(qh, slot);
        if (!e)
            break;
        for (u32 i = 0; i < layout_.resultsPerEntry; ++i) {
            if (e->sr[i].urlHash != 0)
                out.push_back(e->sr[i]);
        }
    }
    return slot;
}

std::vector<ResultRef>
QueryHashTable::lookup(std::string_view query, SimTime *time) const
{
    std::vector<ResultRef> out;
    lookup(fnv1a(query), out, time);
    return out;
}

void
QueryHashTable::lookup(u64 query_fnv, std::vector<ResultRef> &out,
                       SimTime *time) const
{
    if (time)
        *time += kLookupLatency;
    out.clear();
    chain(query_fnv, out);
    std::sort(out.begin(), out.end(),
              [](const ResultRef &a, const ResultRef &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.urlHash < b.urlHash;
              });
}

const ResultRef *
QueryHashTable::locate(std::string_view query, u64 url_hash) const
{
    const u64 qh = fnv1a(query);
    for (u32 slot = 0; slot < kMaxChain; ++slot) {
        const Entry *e = findEntry(qh, slot);
        if (!e)
            return nullptr;
        for (u32 i = 0; i < layout_.resultsPerEntry; ++i) {
            if (e->sr[i].urlHash == url_hash)
                return &e->sr[i];
        }
    }
    return nullptr;
}

bool
QueryHashTable::containsPair(std::string_view query, u64 url_hash) const
{
    return locate(query, url_hash) != nullptr;
}

std::optional<ResultRef>
QueryHashTable::findPair(std::string_view query, u64 url_hash) const
{
    if (const ResultRef *r = locate(query, url_hash))
        return *r;
    return std::nullopt;
}

bool
QueryHashTable::insert(std::string_view query, u64 url_hash, double score,
                       bool user_accessed)
{
    return insert(fnv1a(query), url_hash, score, user_accessed);
}

bool
QueryHashTable::insert(u64 qh, u64 url_hash, double score,
                       bool user_accessed)
{
    pc_assert(url_hash != 0, "url hash 0 is the empty-slot sentinel");
    // One walk over the chain both rejects a duplicate and remembers the
    // first free slot; the chain ends at the first missing key. Only
    // when no entry has a free slot does a new entry get appended there.
    Entry *free_entry = nullptr;
    u32 free_idx = 0;
    for (u32 slot = 0; slot < kMaxChain; ++slot) {
        const u64 key = querySlotKey(qh, slot);
        auto it = table_.find(key);
        if (it == table_.end()) {
            if (free_entry)
                break;
            Entry e;
            e.queryHash = qh;
            e.sr[0] = ResultRef{url_hash, score, user_accessed};
            table_.emplace(key, e);
            ++pairs_;
            return true;
        }
        if (it->second.queryHash != qh) {
            if (free_entry)
                break;
            // A cross-query 64-bit key collision would break chain
            // walking; with mixed FNV hashes this is effectively
            // impossible, so treat it as an internal error.
            pc_panic("query hash key collision");
        }
        for (u32 i = 0; i < layout_.resultsPerEntry; ++i) {
            const u64 h = it->second.sr[i].urlHash;
            if (h == url_hash)
                return false;
            if (h == 0 && !free_entry) {
                free_entry = &it->second;
                free_idx = i;
            }
        }
    }
    if (!free_entry)
        pc_panic("hash chain overflow for query hash ", qh);
    free_entry->sr[free_idx] = ResultRef{url_hash, score, user_accessed};
    ++pairs_;
    return true;
}

bool
QueryHashTable::applyClick(std::string_view query, u64 url_hash,
                           double lambda, double *top_score)
{
    return applyClick(fnv1a(query), url_hash, lambda, top_score);
}

bool
QueryHashTable::applyClick(u64 qh, u64 url_hash, double lambda,
                           double *top_score)
{
    // Decay every unclicked sibling of the query: S = S * e^-lambda
    // (Equation 2); raise the clicked pair by 1 (Equation 1).
    const double decay = std::exp(-lambda);
    bool existed = false;
    // The result lookup() would rank first: best score, ties to the
    // lower url hash (its sort order).
    ResultRef best{0, 0.0, false};
    const auto rank = [&best](const ResultRef &r) {
        if (best.urlHash == 0 || r.score > best.score ||
            (r.score == best.score && r.urlHash < best.urlHash))
            best = r;
    };
    for (u32 slot = 0; slot < kMaxChain; ++slot) {
        Entry *e = findEntry(qh, slot);
        if (!e)
            break;
        for (u32 i = 0; i < layout_.resultsPerEntry; ++i) {
            ResultRef &r = e->sr[i];
            if (r.urlHash == 0)
                continue;
            if (r.urlHash == url_hash) {
                r.score += 1.0;
                r.userAccessed = true;
                existed = true;
            } else {
                r.score *= decay;
            }
            rank(r);
        }
    }
    if (!existed) {
        // First click on a previously uncached pair: new entry with the
        // maximum initial score (Section 5.3).
        insert(qh, url_hash, 1.0, true);
        rank(ResultRef{url_hash, 1.0, true});
    }
    if (top_score)
        *top_score = best.score;
    return existed;
}

bool
QueryHashTable::setScore(std::string_view query, u64 url_hash, double score)
{
    auto *r = const_cast<ResultRef *>(locate(query, url_hash));
    if (r)
        r->score = score;
    return r != nullptr;
}

bool
QueryHashTable::erasePair(std::string_view query, u64 url_hash)
{
    // Collect the whole chain, drop the pair, then rebuild the chain so
    // slot keys stay contiguous.
    const u64 qh = fnv1a(query);
    std::vector<ResultRef> all;
    const u32 chain_len = chain(qh, all);
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const ResultRef &r) {
                                     return r.urlHash == url_hash;
                                 });
    if (it == all.end())
        return false;
    all.erase(it);

    for (u32 slot = 0; slot < chain_len; ++slot)
        table_.erase(querySlotKey(qh, slot));
    pairs_ -= 1 + all.size();
    for (const auto &r : all)
        insert(qh, r.urlHash, r.score, r.userAccessed);
    return true;
}

std::size_t
QueryHashTable::eraseQuery(std::string_view query)
{
    const u64 qh = fnv1a(query);
    std::vector<ResultRef> all;
    const u32 chain_len = chain(qh, all);
    const std::size_t removed = all.size();
    for (u32 slot = 0; slot < chain_len; ++slot)
        table_.erase(querySlotKey(qh, slot));
    pairs_ -= removed;
    return removed;
}

} // namespace pc::core
