#include "core/suggest.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"

namespace pc::core {

std::size_t
SuggestIndex::lowerBound(std::string_view query) const
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), query,
        [](const Entry &e, std::string_view q) { return e.query < q; });
    return std::size_t(it - entries_.begin());
}

bool
SuggestIndex::insert(const std::string &query, double score)
{
    const std::size_t i = lowerBound(query);
    if (i < entries_.size() && entries_[i].query == query) {
        entries_[i].score = std::max(entries_[i].score, score);
        return false;
    }
    entries_.insert(entries_.begin() + std::ptrdiff_t(i),
                    Entry{query, score});
    return true;
}

void
SuggestIndex::insertBulk(
    std::vector<std::pair<std::string_view, double>> batch)
{
    if (batch.empty())
        return;
    // Stable, so each query's scores fold in batch order — the order
    // the equivalent insert calls would apply them.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<Entry> merged;
    merged.reserve(entries_.size() + batch.size());
    auto old = entries_.begin();
    for (std::size_t j = 0; j < batch.size();) {
        const std::string_view q = batch[j].first;
        while (old != entries_.end() && old->query < q)
            merged.push_back(std::move(*old++));
        if (old != entries_.end() && old->query == q)
            merged.push_back(std::move(*old++));
        else
            merged.push_back(Entry{std::string(q), batch[j++].second});
        double &score = merged.back().score;
        for (; j < batch.size() && batch[j].first == q; ++j)
            score = std::max(score, batch[j].second);
    }
    merged.insert(merged.end(), std::make_move_iterator(old),
                  std::make_move_iterator(entries_.end()));
    entries_ = std::move(merged);
}

bool
SuggestIndex::erase(const std::string &query)
{
    const std::size_t i = lowerBound(query);
    if (i >= entries_.size() || entries_[i].query != query)
        return false;
    entries_.erase(entries_.begin() + std::ptrdiff_t(i));
    return true;
}

void
SuggestIndex::clear()
{
    entries_.clear();
}

std::vector<Suggestion>
SuggestIndex::suggest(std::string_view prefix, u32 k,
                      SimTime *time) const
{
    if (time)
        *time += kKeystrokeLatency;
    std::vector<Suggestion> out;
    if (k == 0)
        return out;

    // The matching range is [first entry >= prefix, first entry whose
    // string no longer starts with prefix).
    std::size_t i = lowerBound(prefix);
    std::vector<const Entry *> matches;
    for (; i < entries_.size(); ++i) {
        const std::string &q = entries_[i].query;
        if (q.size() < prefix.size() ||
            std::string_view(q).substr(0, prefix.size()) != prefix)
            break;
        matches.push_back(&entries_[i]);
    }

    // Top-k by score (stable for equal scores: lexicographic).
    std::sort(matches.begin(), matches.end(),
              [](const Entry *a, const Entry *b) {
                  if (a->score != b->score)
                      return a->score > b->score;
                  return a->query < b->query;
              });
    const std::size_t n = std::min<std::size_t>(k, matches.size());
    out.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
        out.push_back(Suggestion{matches[j]->query, matches[j]->score});
    return out;
}

Bytes
SuggestIndex::memoryBytes() const
{
    Bytes total = 0;
    for (const auto &e : entries_)
        total += e.query.size() + sizeof(double) + 16; // string + score
    return total;
}

} // namespace pc::core
