/**
 * @file
 * Versioned community model — the artifact the cloud update service
 * mines from a month of search logs.
 *
 * A model is the triplet table (Table 3) plus the cache contents
 * selected from it, stamped with a monotonically increasing version.
 * The fleet syncs by version: a device that last synced version v and
 * asks for version w receives the *delta* between the two contents,
 * not a full rebuild.
 *
 * encode() is the canonical byte serialization used by the
 * sharded-vs-sequential equality tests and the bench determinism
 * check: two builds are "byte-identical" iff their encodings match.
 * Timing-dependent build statistics (wall time, queue watermarks) are
 * deliberately excluded from the encoding.
 */

#ifndef PC_SERVER_MODEL_H
#define PC_SERVER_MODEL_H

#include <string>
#include <vector>

#include "core/cache_content.h"
#include "logs/triplets.h"

namespace pc::server {

/** Per-shard accounting of one build. */
struct ShardStats
{
    u64 records = 0; ///< Log records whose query hashes here.
    u64 rows = 0;    ///< Distinct (query, result) pairs in the shard.
};

/** Accounting of one model build. */
struct BuildStats
{
    u64 records = 0;       ///< Log records ingested.
    u64 batches = 0;       ///< Work items pushed through the queue.
    u32 shards = 0;        ///< Shard count used.
    u32 threads = 0;       ///< Worker threads used.
    u64 distinctPairs = 0; ///< Rows in the merged triplet table.
    /**
     * Poisoned log records dropped at ingest: pair ids outside the
     * universe (a corrupted log line, a collector bug). Counted, never
     * built into the model — and never asserted on, because one bad
     * record in a month of logs must not take the pipeline down.
     */
    u64 skippedRecords = 0;
    std::vector<ShardStats> shardStats; ///< Per-shard, by shard index.

    // Timing-dependent diagnostics: exact but not deterministic.
    // Never fold these into byte-gated reports.
    std::size_t maxQueueDepth = 0; ///< Queue high-water mark.
    double meanQueueDepth = 0.0;   ///< Mean depth at push.
    double wallMs = 0.0;           ///< Wall-clock build time.
};

/** One versioned community model. */
struct CommunityModel
{
    u64 version = 0;              ///< 1-based; 0 means "no model".
    logs::TripletTable table;     ///< Merged, volume-sorted triplets.
    core::CacheContents contents; ///< Selected cache contents.
    BuildStats stats;             ///< How the build went.

    /**
     * Canonical serialization of everything deterministic: version,
     * triplet rows (pair ids + volumes, in row order) and contents
     * (pair ids + scores, in selection order). Byte-equal encodings
     * <=> identical models.
     */
    std::string encode() const;
};

} // namespace pc::server

#endif // PC_SERVER_MODEL_H
