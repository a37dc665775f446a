#include "logs/triplets.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace pc::logs {

namespace {

/** Pack a PairRef into a 64-bit map key. */
constexpr u64
pairKey(const PairRef &p)
{
    return (u64(p.query) << 32) | p.result;
}

} // namespace

bool
TripletTable::rowOrder(const Triplet &a, const Triplet &b)
{
    if (a.volume != b.volume)
        return a.volume > b.volume;
    // Deterministic tie-break for reproducibility.
    return pairKey(a.pair) < pairKey(b.pair);
}

TripletTable
TripletTable::fromLog(const SearchLog &log)
{
    const u32 nQueries = log.universe().numQueries();
    const u32 nResults = log.universe().numResults();
    std::unordered_map<u64, u64> counts;
    counts.reserve(log.size() / 4 + 16);
    for (const auto &rec : log.records()) {
        // Poisoned record (ids the universe cannot interpret): skipped,
        // as the server builder does, so no row names a missing id.
        if (rec.pair.query >= nQueries || rec.pair.result >= nResults)
            continue;
        ++counts[pairKey(rec.pair)];
    }

    std::vector<Triplet> rows;
    rows.reserve(counts.size());
    for (const auto &[key, volume] : counts) {
        Triplet row;
        row.pair = PairRef{u32(key >> 32), u32(key & 0xffffffffu)};
        row.volume = volume;
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(), rowOrder);
    return fromSortedRows(std::move(rows));
}

TripletTable
TripletTable::fromSortedRows(std::vector<Triplet> rows)
{
#ifndef NDEBUG
    for (std::size_t i = 1; i < rows.size(); ++i)
        pc_assert(rowOrder(rows[i - 1], rows[i]),
                  "fromSortedRows: rows not in rowOrder");
#endif
    TripletTable t;
    t.rows_ = std::move(rows);
    t.cumulative_.reserve(t.rows_.size());
    u64 acc = 0;
    for (const auto &row : t.rows_) {
        acc += row.volume;
        t.cumulative_.push_back(acc);
    }
    t.total_ = acc;
    return t;
}

double
TripletTable::normalizedVolume(std::size_t i) const
{
    pc_assert(i < rows_.size(), "triplet row out of range");
    if (total_ == 0)
        return 0.0;
    return double(rows_[i].volume) / double(total_);
}

double
TripletTable::cumulativeShare(std::size_t k) const
{
    if (total_ == 0 || k == 0)
        return 0.0;
    k = std::min(k, cumulative_.size());
    return double(cumulative_[k - 1]) / double(total_);
}

std::size_t
TripletTable::rowsForShare(double share) const
{
    pc_assert(share >= 0.0 && share <= 1.0, "share out of [0,1]");
    if (total_ == 0)
        return 0;
    const u64 target = u64(share * double(total_));
    const auto it = std::lower_bound(cumulative_.begin(),
                                     cumulative_.end(), target);
    if (it == cumulative_.end())
        return cumulative_.size();
    return std::size_t(it - cumulative_.begin()) + 1;
}

} // namespace pc::logs
