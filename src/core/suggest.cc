#include "core/suggest.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace pc::core {

std::size_t
SuggestIndex::lowerBound(std::string_view query) const
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), query,
        [this](const Entry &e, std::string_view q) { return key(e) < q; });
    return std::size_t(it - entries_.begin());
}

SuggestIndex::Entry
SuggestIndex::intern(std::string_view query, double score)
{
    pc_assert(arena_.size() + query.size() <=
                  std::numeric_limits<u32>::max(),
              "suggest arena exceeds 4 GiB");
    const Entry e{u32(arena_.size()), u32(query.size()), score};
    arena_.append(query);
    liveBytes_ += query.size();
    return e;
}

void
SuggestIndex::maybeCompact()
{
    if (arena_.size() - liveBytes_ <= liveBytes_)
        return;
    std::string packed;
    packed.reserve(liveBytes_);
    for (Entry &e : entries_) {
        const u32 offset = u32(packed.size());
        packed.append(key(e));
        e.offset = offset;
    }
    arena_ = std::move(packed);
}

std::pair<SuggestIndex::Entry &, bool>
SuggestIndex::emplace(std::string_view query, double score)
{
    const std::size_t i = lowerBound(query);
    if (i < entries_.size() && key(entries_[i]) == query)
        return {entries_[i], false};
    const auto at = entries_.insert(entries_.begin() + std::ptrdiff_t(i),
                                    intern(query, score));
    return {*at, true};
}

bool
SuggestIndex::insert(std::string_view query, double score)
{
    auto [e, fresh] = emplace(query, score);
    e.score = std::max(e.score, score);
    return fresh;
}

bool
SuggestIndex::assign(std::string_view query, double score)
{
    auto [e, fresh] = emplace(query, score);
    e.score = score;
    return fresh;
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
        while (old != entries_.end() && key(*old) < q)
            merged.push_back(*old++);
        if (old != entries_.end() && key(*old) == q)
            merged.push_back(*old++);
        else
            merged.push_back(intern(q, batch[j++].second));
        double &score = merged.back().score;
        for (; j < batch.size() && batch[j].first == q; ++j)
            score = std::max(score, batch[j].second);
    }
    merged.insert(merged.end(), old, entries_.end());
    entries_ = std::move(merged);
}

bool
SuggestIndex::erase(std::string_view query)
{
    const std::size_t i = lowerBound(query);
    if (i >= entries_.size() || key(entries_[i]) != query)
        return false;
    liveBytes_ -= entries_[i].len;
    entries_.erase(entries_.begin() + std::ptrdiff_t(i));
    maybeCompact();
    return true;
}

void
SuggestIndex::clear()
{
    entries_.clear();
    arena_.clear();
    liveBytes_ = 0;
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
    for (; i < entries_.size() && key(entries_[i]).starts_with(prefix); ++i)
        matches.push_back(&entries_[i]);

    // Top-k by score (stable for equal scores: lexicographic).
    const std::size_t n = std::min<std::size_t>(k, matches.size());
    std::partial_sort(matches.begin(),
                      matches.begin() + std::ptrdiff_t(n), matches.end(),
                      [this](const Entry *a, const Entry *b) {
                          if (a->score != b->score)
                              return a->score > b->score;
                          return key(*a) < key(*b);
                      });
    out.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
        out.push_back(
            Suggestion{std::string(key(*matches[j])), matches[j]->score});
    return out;
}

} // namespace pc::core
