/**
 * @file
 * Multi-threaded community-model builder (the cloud half of Section
 * 5.1, sized for the paper's 200M-query month).
 *
 * Pipeline:
 *
 *   in-memory log ──batch b claimed off one atomic counter──▶ T
 *   counting workers (each with a private u32 array over the slot
 *   dictionary, plus a spill map for pairs outside it) ──join──▶ one
 *   key-ordered pass (sum the arrays, merge the sorted spill, emit
 *   rows, account shards) ──▶ stable sort by volume ──▶ TripletTable
 *   ──▶ CacheContents
 *
 * SearchLog::records() already holds the month whole, so there is no
 * producer and no queue: batch b is records [b * batchRecords,
 * (b+1) * batchRecords), and each worker takes the next unclaimed b
 * until none is left. Ingest memory is the log plus T count arrays.
 *
 * The slot dictionary is built once per builder: query q owns slots
 * slotBase_[q]..slotBase_[q+1], one per result in its
 * QueryInfo::results, ascending — so slot order is packed-pair-key
 * order. A record bumps its pair's slot; an in-range pair no query
 * lists (none of the generated logs has one) goes to the spill.
 *
 * Shards partition the accounting, not the counting: each query is
 * assigned fnv1a(query text) % shards (the same hash the device table
 * keys on) once, and BuildStats::shardStats reports per-shard records
 * and rows through that table.
 *
 * Determinism invariant (tested, and the reason the whole fleet of
 * byte-deterministic benches survives this subsystem): for any shard
 * count N >= 1 and thread count T >= 1, the built model is
 * byte-identical to the sequential build (TripletTable::fromLog +
 * CacheContentBuilder). The argument:
 *
 *  - per-pair volumes are integer sums — associative and commutative,
 *    so worker scheduling cannot change any count;
 *  - the emit pass walks slots and the sorted spill in packed-key
 *    order, so rows leave it sorted by key, whatever the schedule;
 *  - a *stable* sort by volume descending then leaves equal volumes
 *    in key order: exactly TripletTable::rowOrder, the strict total
 *    order the sequential build sorts with.
 *
 * Only the wall-clock time varies run to run; everything in
 * CommunityModel::encode() is invariant.
 */

#ifndef PC_SERVER_BUILDER_H
#define PC_SERVER_BUILDER_H

#include <vector>

#include "server/model.h"
#include "workload/searchlog.h"

namespace pc::server {

/** Build-pipeline shape. */
struct BuildConfig
{
    /**
     * Query-hash partitions (>= 1) of the per-shard accounting in
     * BuildStats::shardStats; counting itself is not partitioned.
     */
    u32 shards = 8;
    u32 threads = 4;         ///< Aggregation workers (>= 1).
    u32 batchRecords = 8192; ///< Log records per claimed batch.
};

/**
 * Builds versioned community models from search logs. Stateless
 * between builds; thread-safe to the extent that distinct builders
 * may run concurrently (one build spawns its own worker pool).
 */
class CommunityModelBuilder
{
  public:
    /**
     * Precomputes each query's shard and the slot dictionary.
     *
     * @param universe Interprets pair ids (query strings are hashed
     *        for sharding; results are sized for the contents).
     * @param cfg Pipeline shape.
     */
    CommunityModelBuilder(const workload::QueryUniverse &universe,
                          const BuildConfig &cfg = {});

    /**
     * Mine one log into a model.
     *
     * @param log The month of community logs.
     * @param version Version stamp for the result.
     * @param policy Content selection policy.
     */
    CommunityModel build(const workload::SearchLog &log, u64 version,
                         const core::ContentPolicy &policy) const;

    /** Configuration. */
    const BuildConfig &config() const { return cfg_; }

  private:
    const workload::QueryUniverse &universe_;
    BuildConfig cfg_;
    std::vector<u32> queryShard_;  ///< Shard of each query id.
    std::vector<u32> slotBase_;    ///< Query q owns [slotBase_[q], [q+1]).
    std::vector<u32> slotResult_;  ///< Result id of each slot.
};

} // namespace pc::server

#endif // PC_SERVER_BUILDER_H
