#include "core/cache_content.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace pc::core {

CacheContentBuilder::CacheContentBuilder(const QueryUniverse &universe,
                                         HashEntryLayout layout)
    : universe_(universe), layout_(layout)
{
    pc_assert(layout_.resultsPerEntry >= 1,
              "hash entries need at least one result slot");
}

void
CacheContentBuilder::scorePairs(std::vector<ScoredPair> &pairs) const
{
    // Score of a (query, result) pair = its volume divided by the total
    // volume of all selected results for the same query (Section 5.1's
    // imdb 0.53 / azlyrics 0.47 example).
    std::unordered_map<u32, u64> query_volume;
    for (const auto &p : pairs)
        query_volume[p.pair.query] += p.volume;
    for (auto &p : pairs) {
        const u64 qv = query_volume[p.pair.query];
        p.score = qv ? double(p.volume) / double(qv) : 0.0;
    }
}

Bytes
CacheContentBuilder::dramFootprint(const std::vector<ScoredPair> &pairs,
                                   HashEntryLayout layout) const
{
    // Entries needed: ceil(results per query / slots per entry), summed
    // over distinct queries (Section 5.2.1's multi-entry chaining).
    std::unordered_map<u32, u32> results_per_query;
    for (const auto &p : pairs)
        ++results_per_query[p.pair.query];
    u64 entries = 0;
    for (const auto &[q, n] : results_per_query) {
        (void)q;
        entries += (n + layout.resultsPerEntry - 1) /
                   layout.resultsPerEntry;
    }
    return entries * layout.entryBytes();
}

CacheContents
CacheContentBuilder::build(const TripletTable &table,
                           const ContentPolicy &policy) const
{
    CacheContents out;
    std::unordered_set<u32> seen_results;
    std::unordered_map<u32, u32> results_per_query;
    Bytes flash = 0;
    u64 entries = 0;
    u64 cumulative = 0;

    const auto &rows = table.rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Triplet &row = rows[i];

        // Tentative footprint if this pair were added.
        Bytes flash_next = flash;
        if (!seen_results.count(row.pair.result)) {
            flash_next += QueryUniverse::recordSize(
                universe_.result(row.pair.result));
        }
        u64 entries_next = entries;
        {
            const u32 n = results_per_query[row.pair.query];
            const u32 before =
                (n + layout_.resultsPerEntry - 1) / layout_.resultsPerEntry;
            const u32 after =
                (n + 1 + layout_.resultsPerEntry - 1) /
                layout_.resultsPerEntry;
            entries_next += after - before;
        }
        const Bytes dram_next = entries_next * layout_.entryBytes();

        // Stopping rules.
        bool stop = false;
        switch (policy.kind) {
          case ThresholdKind::FlashBudget:
            stop = flash_next > policy.flashBudget;
            break;
          case ThresholdKind::DramBudget:
            stop = dram_next > policy.dramBudget;
            break;
          case ThresholdKind::CacheSaturation:
            stop = table.normalizedVolume(i) < policy.saturationVth;
            break;
          case ThresholdKind::VolumeShare:
            stop = table.totalVolume() > 0 &&
                   double(cumulative) / double(table.totalVolume()) >=
                       policy.volumeShare;
            break;
        }
        if (stop)
            break;

        // Commit the pair.
        ScoredPair sp;
        sp.pair = row.pair;
        sp.volume = row.volume;
        out.pairs.push_back(sp);
        seen_results.insert(row.pair.result);
        ++results_per_query[row.pair.query];
        flash = flash_next;
        entries = entries_next;
        cumulative += row.volume;
    }

    scorePairs(out.pairs);
    out.uniqueResults = seen_results.size();
    out.flashBytes = flash;
    out.dramBytes = entries * layout_.entryBytes();
    out.cumulativeShare = table.totalVolume()
        ? double(cumulative) / double(table.totalVolume()) : 0.0;
    return out;
}

} // namespace pc::core
