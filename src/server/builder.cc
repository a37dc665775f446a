#include "server/builder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace pc::server {

namespace {

/** Pack a PairRef into a 64-bit key (matches TripletTable). */
constexpr u64
pairKey(const workload::PairRef &p)
{
    return (u64(p.query) << 32) | p.result;
}

/** Per-worker private aggregation state (no locks on the hot path). */
struct WorkerState
{
    /** counts[slot] -> volume this worker saw for the slot's pair. */
    std::vector<u32> counts;
    /** In-range pairs outside the slot dictionary: pairKey -> volume. */
    std::map<u64, u64> spill;
    /** Poisoned records this worker dropped (ids out of range). */
    u64 skipped = 0;
};

/**
 * Stable sort by volume, descending: LSD radix, one pass per byte of the
 * largest volume. Memory is a scratch copy of the rows and a 256-entry
 * histogram, whatever the volumes are.
 */
void
stableSortByVolumeDesc(std::vector<logs::Triplet> &rows)
{
    u64 maxVolume = 0;
    for (const auto &row : rows)
        maxVolume = std::max(maxVolume, row.volume);
    std::vector<logs::Triplet> scratch(rows.size());
    for (u32 shift = 0; shift < 64 && (maxVolume >> shift) != 0;
         shift += 8) {
        std::size_t at[256] = {};
        for (const auto &row : rows)
            ++at[255 - ((row.volume >> shift) & 0xff)];
        std::exclusive_scan(at, at + 256, at, std::size_t(0));
        for (const auto &row : rows)
            scratch[at[255 - ((row.volume >> shift) & 0xff)]++] = row;
        rows.swap(scratch);
    }
}

} // namespace

CommunityModelBuilder::CommunityModelBuilder(
    const workload::QueryUniverse &universe, const BuildConfig &cfg)
    : universe_(universe), cfg_(cfg)
{
    pc_assert(cfg_.shards >= 1, "builder needs at least one shard");
    pc_assert(cfg_.threads >= 1, "builder needs at least one worker");
    pc_assert(cfg_.batchRecords >= 1, "batch size must be positive");

    // Query-*hash* partitioning: the same fnv1a the device hash table
    // keys on, so a real server could shard raw log lines without the
    // id space the simulation enjoys. Slots list each query's results
    // ascending, so slot order is packed-pair-key order (a repeated
    // result's second slot is never counted, so it emits nothing).
    const u32 nQueries = universe_.numQueries();
    queryShard_.resize(nQueries);
    slotBase_ = {0};
    for (u32 q = 0; q < nQueries; ++q) {
        const auto &info = universe_.query(q);
        queryShard_[q] = u32(fnv1a(info.text) % cfg_.shards);
        const auto first = slotResult_.size();
        for (const auto &[result, weight] : info.results)
            slotResult_.push_back(result);
        std::sort(slotResult_.begin() + first, slotResult_.end());
        slotBase_.push_back(u32(slotResult_.size()));
    }
}

CommunityModel
CommunityModelBuilder::build(const workload::SearchLog &log, u64 version,
                             const core::ContentPolicy &policy) const
{
    const auto wallStart = std::chrono::steady_clock::now();
    const auto &records = log.records();
    const u32 nThreads = cfg_.threads;
    const u32 nQueries = universe_.numQueries();
    pc_assert(records.size() < (u64(1) << 32),
              "log too large for the u32 slot counts");

    CommunityModel model;
    model.version = version;
    model.stats.shards = cfg_.shards;
    model.stats.threads = nThreads;
    model.stats.records = records.size();
    model.stats.shardStats.resize(cfg_.shards);

    // ---- Stage 1: workers claim batches of the in-memory log. ----------
    // Batch b is records [b * batchRecords, (b+1) * batchRecords); one
    // atomic counter hands each batch to exactly one worker.
    const std::size_t batchRecords = cfg_.batchRecords;
    const std::size_t nBatches =
        (records.size() + batchRecords - 1) / batchRecords;
    model.stats.batches = nBatches;
    std::vector<WorkerState> workers(
        nThreads, WorkerState{std::vector<u32>(slotResult_.size()), {}, 0});
    std::atomic<std::size_t> nextBatch{0};
    std::vector<std::thread> pool;
    pool.reserve(nThreads);
    for (u32 t = 0; t < nThreads; ++t) {
        pool.emplace_back([&, t] {
            WorkerState &w = workers[t];
            for (std::size_t b = nextBatch++; b < nBatches;
                 b = nextBatch++) {
                const std::size_t last = std::min(
                    records.size(), (b + 1) * batchRecords);
                for (std::size_t i = b * batchRecords; i < last; ++i) {
                    const auto &pair = records[i].pair;
                    // Poisoned record (ids the universe cannot
                    // interpret): skip and count.
                    if (pair.query >= nQueries ||
                        pair.result >= universe_.numResults()) {
                        ++w.skipped;
                        continue;
                    }
                    u32 s = slotBase_[pair.query];
                    const u32 end = slotBase_[pair.query + 1];
                    while (s < end && slotResult_[s] != pair.result)
                        ++s;
                    if (s < end)
                        ++w.counts[s];
                    else
                        ++w.spill[pairKey(pair)];
                }
            }
        });
    }
    for (auto &th : pool)
        th.join();

    // ---- Stage 2: sum the worker counts (exact and order-independent)
    // and emit rows in packed-pair-key order: slots already are, and
    // the key-sorted spill merges in. Shards are accounted per row.
    std::vector<u32> &counts = workers.front().counts;
    auto &spill = workers.front().spill;
    for (std::size_t t = 1; t < workers.size(); ++t) {
        for (std::size_t s = 0; s < counts.size(); ++s)
            counts[s] += workers[t].counts[s];
        for (const auto &[key, volume] : workers[t].spill)
            spill[key] += volume;
    }
    for (const auto &w : workers)
        model.stats.skippedRecords += w.skipped;
    if (model.stats.skippedRecords > 0)
        pc_warn("model build v", version, " skipped ",
                model.stats.skippedRecords, " poisoned log records");

    std::vector<logs::Triplet> rows;
    for (u32 q = 0; q < nQueries; ++q)
        for (u32 s = slotBase_[q]; s < slotBase_[q + 1]; ++s)
            if (counts[s] != 0)
                rows.push_back({{q, slotResult_[s]}, counts[s]});
    const std::ptrdiff_t slotRows = std::ssize(rows);
    for (const auto &[key, volume] : spill)
        rows.push_back({{u32(key >> 32), u32(key)}, volume});
    const auto byKey = [](const logs::Triplet &a, const logs::Triplet &b) {
        return pairKey(a.pair) < pairKey(b.pair);
    };
    std::inplace_merge(rows.begin(), rows.begin() + slotRows, rows.end(),
                       byKey);
    for (const auto &row : rows) {
        auto &st = model.stats.shardStats[queryShard_[row.pair.query]];
        st.records += row.volume;
        ++st.rows;
    }

    // ---- Stage 3: rows are in key order, so a stable sort by volume
    // alone yields rowOrder (volume desc, key asc) — the sequential
    // build's exact row sequence.
    stableSortByVolumeDesc(rows);
    model.stats.distinctPairs = rows.size();
    model.table = logs::TripletTable::fromSortedRows(std::move(rows));

    // ---- Stage 4: content selection (identical to the sequential
    // path — same builder, same policy, same table).
    core::CacheContentBuilder contentBuilder(universe_);
    model.contents = contentBuilder.build(model.table, policy);

    model.stats.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wallStart)
            .count();
    return model;
}

} // namespace pc::server
