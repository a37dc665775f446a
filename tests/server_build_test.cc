/**
 * @file
 * Sharded-builder determinism properties: for every (shards, threads)
 * combination the built community model must be byte-identical to the
 * sequential build (TripletTable::fromLog + CacheContentBuilder),
 * including the 1-shard, shards >> queries, and empty-log edge cases,
 * poisoned records, pairs outside the slot dictionary (the spill),
 * equal volumes across shards (the tie-break) and a seeded sweep of
 * random logs and pipeline shapes — and the deltas a service
 * generates must not depend on the pipeline shape that built the
 * models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/cache_content.h"
#include "harness/workbench.h"
#include "logs/triplets.h"
#include "server/builder.h"
#include "server/service.h"
#include "util/rng.h"

namespace pc::server {
namespace {

using harness::smallWorkbenchConfig;
using harness::Workbench;

/** One shared small world: Workbench construction dominates runtime. */
const Workbench &
sharedWorkbench()
{
    static const Workbench wb(smallWorkbenchConfig());
    return wb;
}

/** A slice of the build month, to keep the config grid fast. */
workload::SearchLog
slicedLog(const Workbench &wb, std::size_t n)
{
    workload::SearchLog log(wb.universe());
    const auto &records = wb.buildLog().records();
    log.reserve(std::min(n, records.size()));
    for (std::size_t i = 0; i < records.size() && i < n; ++i)
        log.add(records[i]);
    return log;
}

/** The sequential reference build the pipeline must reproduce. */
CommunityModel
sequentialBuild(const workload::QueryUniverse &u,
                const workload::SearchLog &log, u64 version,
                const core::ContentPolicy &policy)
{
    CommunityModel m;
    m.version = version;
    m.table = logs::TripletTable::fromLog(log);
    core::CacheContentBuilder builder(u);
    m.contents = builder.build(m.table, policy);
    return m;
}

/** A log record carrying only the pair (all the builder reads). */
workload::LogRecord
recordOf(u32 query, u32 result)
{
    workload::LogRecord rec;
    rec.pair = workload::PairRef{query, result};
    return rec;
}

/** True if `result` is one of the query's QueryInfo::results. */
bool
listsResult(const workload::QueryUniverse &u, u32 query, u32 result)
{
    const auto &results = u.query(query).results;
    return std::any_of(results.begin(), results.end(),
                       [&](const auto &r) { return r.first == result; });
}

/** Encoding of a pipeline build of `log` in the given shape. */
std::string
pipelineEncoding(const workload::QueryUniverse &u,
                 const workload::SearchLog &log, u32 shards, u32 threads,
                 u32 batchRecords)
{
    BuildConfig cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.batchRecords = batchRecords;
    return CommunityModelBuilder(u, cfg).build(log, 1, {}).encode();
}

TEST(CommunityModelBuilder, ShardThreadGridMatchesSequentialBuild)
{
    const Workbench &wb = sharedWorkbench();
    const auto log = slicedLog(wb, 20'000);
    const core::ContentPolicy policy{};
    const std::string want =
        sequentialBuild(wb.universe(), log, 1, policy).encode();

    for (u32 shards : {1u, 2u, 3u, 8u}) {
        for (u32 threads : {1u, 2u, 4u}) {
            BuildConfig cfg;
            cfg.shards = shards;
            cfg.threads = threads;
            cfg.batchRecords = 1024;
            CommunityModelBuilder b(wb.universe(), cfg);
            const CommunityModel m = b.build(log, 1, policy);
            EXPECT_EQ(m.encode(), want)
                << "shards=" << shards << " threads=" << threads;
            EXPECT_EQ(m.stats.shards, shards);
            EXPECT_EQ(m.stats.threads, threads);
            EXPECT_EQ(m.stats.records, log.size());
            EXPECT_EQ(m.stats.batches, (log.size() + 1023) / 1024)
                << "one claimed batch per 1024 records";

            // Shard accounting must cover the whole log exactly.
            u64 records = 0, rows = 0;
            ASSERT_EQ(m.stats.shardStats.size(), shards);
            for (const auto &ss : m.stats.shardStats) {
                records += ss.records;
                rows += ss.rows;
            }
            EXPECT_EQ(records, log.size());
            EXPECT_EQ(rows, m.stats.distinctPairs);
        }
    }
}

TEST(CommunityModelBuilder, RepeatBuildsAreByteIdentical)
{
    const Workbench &wb = sharedWorkbench();
    const auto log = slicedLog(wb, 20'000);
    BuildConfig cfg;
    cfg.shards = 4;
    cfg.threads = 4;
    cfg.batchRecords = 512;
    CommunityModelBuilder b(wb.universe(), cfg);
    const core::ContentPolicy policy{};
    EXPECT_EQ(b.build(log, 3, policy).encode(),
              b.build(log, 3, policy).encode());
}

TEST(CommunityModelBuilder, EmptyLogBuildsEmptyModel)
{
    const Workbench &wb = sharedWorkbench();
    const workload::SearchLog empty(wb.universe());
    const core::ContentPolicy policy{};
    const std::string want =
        sequentialBuild(wb.universe(), empty, 1, policy).encode();
    for (u32 shards : {1u, 8u}) {
        BuildConfig cfg;
        cfg.shards = shards;
        cfg.threads = 4;
        CommunityModelBuilder b(wb.universe(), cfg);
        const CommunityModel m = b.build(empty, 1, policy);
        EXPECT_EQ(m.encode(), want);
        EXPECT_EQ(m.stats.distinctPairs, 0u);
        EXPECT_EQ(m.table.rows().size(), 0u);
        EXPECT_TRUE(m.contents.pairs.empty());
    }
}

TEST(CommunityModelBuilder, ManyMoreShardsThanQueriesStillMatches)
{
    const Workbench &wb = sharedWorkbench();
    // A tiny log touching a handful of queries, against 64 shards:
    // most shards stay empty and the merge must still be exact.
    const auto log = slicedLog(wb, 50);
    const core::ContentPolicy policy{};
    const std::string want =
        sequentialBuild(wb.universe(), log, 1, policy).encode();
    BuildConfig cfg;
    cfg.shards = 64;
    cfg.threads = 3;
    cfg.batchRecords = 7;
    CommunityModelBuilder b(wb.universe(), cfg);
    EXPECT_EQ(b.build(log, 1, policy).encode(), want);
}

TEST(CommunityModelBuilder, PoisonedRecordsSkippedLikeSequentialBuild)
{
    const Workbench &wb = sharedWorkbench();
    const auto &u = wb.universe();
    auto log = slicedLog(wb, 5'000);
    // Enough poisoned volume to top the table if it were counted: the
    // content builder would then look up ids the universe lacks.
    for (u32 i = 0; i < 300; ++i) {
        log.add(recordOf(u.numQueries() + i % 3, 0));
        log.add(recordOf(0, u.numResults() + 7));
    }
    const auto seq = sequentialBuild(u, log, 1, {});
    for (const auto &row : seq.table.rows()) {
        ASSERT_LT(row.pair.query, u.numQueries());
        ASSERT_LT(row.pair.result, u.numResults());
    }
    EXPECT_EQ(seq.table.totalVolume(), log.size() - 600);

    const std::string want = seq.encode();
    for (const auto &[shards, threads, batch] :
         {std::tuple{1u, 1u, 4096u}, std::tuple{3u, 2u, 97u},
          std::tuple{8u, 4u, 512u}}) {
        BuildConfig cfg;
        cfg.shards = shards;
        cfg.threads = threads;
        cfg.batchRecords = batch;
        const CommunityModel m =
            CommunityModelBuilder(u, cfg).build(log, 1, {});
        EXPECT_EQ(m.encode(), want)
            << "shards=" << shards << " threads=" << threads;
        EXPECT_EQ(m.stats.skippedRecords, 600u);
        u64 records = 0;
        for (const auto &ss : m.stats.shardStats)
            records += ss.records;
        EXPECT_EQ(records, log.size() - 600);
    }
}

TEST(CommunityModelBuilder, OffDictionaryPairsTakeTheSpillPath)
{
    const Workbench &wb = sharedWorkbench();
    const auto &u = wb.universe();
    auto log = slicedLog(wb, 5'000);
    // Pair queries with results they do not list, on both sides of
    // their own results in key order, at volumes that tie with slot
    // rows (1, 2) and that make the contents (400). Spread the copies
    // through the log so several workers count the same spill pair.
    std::vector<workload::PairRef> spill;
    for (u32 q = 0; q < 200 && spill.size() < 40; q += 5) {
        const u32 own = u.query(q).results.front().first;
        for (const u32 r : {own - 1, own + 1})
            if (r < u.numResults() && !listsResult(u, q, r))
                spill.push_back({q, r});
    }
    ASSERT_GE(spill.size(), 20u);
    for (std::size_t i = 0; i < spill.size(); ++i) {
        const u32 copies = i % 4 == 0 ? 400 : u32(1 + i % 2);
        for (u32 c = 0; c < copies; ++c)
            log.add(recordOf(spill[i].query, spill[i].result));
    }
    workload::SearchLog shuffled(u);
    Rng rng(11);
    std::vector<workload::LogRecord> records = log.records();
    for (std::size_t i = records.size(); i > 1; --i)
        std::swap(records[i - 1], records[rng.below(i)]);
    for (const auto &rec : records)
        shuffled.add(rec);

    const auto seq = sequentialBuild(u, shuffled, 1, {});
    std::size_t spillRows = 0, spillSelected = 0;
    for (const auto &row : seq.table.rows())
        spillRows += !listsResult(u, row.pair.query, row.pair.result);
    for (const auto &sp : seq.contents.pairs)
        spillSelected += !listsResult(u, sp.pair.query, sp.pair.result);
    ASSERT_EQ(spillRows, spill.size());
    ASSERT_GT(spillSelected, 0u) << "spill pairs must reach the contents";

    const std::string want = seq.encode();
    for (u32 threads : {1u, 2u, 4u}) {
        EXPECT_EQ(pipelineEncoding(u, shuffled, 5, threads, 64), want)
            << "threads=" << threads;
    }
}

TEST(CommunityModelBuilder, EqualVolumesAcrossShardsBreakTiesByPairKey)
{
    const Workbench &wb = sharedWorkbench();
    const auto &u = wb.universe();
    BuildConfig shape;
    shape.shards = 4;

    // Every pair gets volume 3 or 7, written in descending key order
    // so arrival order is the reverse of the wanted tie order. Every
    // fourth pair is outside the dictionary, so ties also cross the
    // slot/spill boundary.
    workload::SearchLog log(u);
    for (u32 q = 120; q-- > 0;) {
        u32 r = u.query(q).results.front().first;
        if (q % 4 == 0 && r + 1 < u.numResults() &&
            !listsResult(u, q, r + 1))
            ++r;
        const u32 volume = q % 3 == 0 ? 7 : 3;
        for (u32 c = 0; c < volume; ++c)
            log.add(recordOf(q, r));
    }
    const auto sharded = CommunityModelBuilder(u, shape).build(log, 1, {});
    for (const auto &ss : sharded.stats.shardStats)
        ASSERT_GT(ss.rows, 0u) << "ties must span every shard";

    const auto seq = sequentialBuild(u, log, 1, {});
    const auto &rows = seq.table.rows();
    ASSERT_EQ(rows.size(), 120u);
    for (std::size_t i = 1; i < rows.size(); ++i) {
        if (rows[i - 1].volume == rows[i].volume) {
            ASSERT_LT(rows[i - 1].pair.query, rows[i].pair.query);
        }
    }

    const std::string want = seq.encode();
    for (u32 threads : {1u, 3u}) {
        for (u32 batch : {1u, 7u, 4096u}) {
            EXPECT_EQ(pipelineEncoding(u, log, shape.shards, threads,
                                       batch),
                      want)
                << "threads=" << threads << " batch=" << batch;
        }
    }
}

TEST(CommunityModelBuilder, RandomLogsAndShapesMatchSequentialBuild)
{
    const Workbench &wb = sharedWorkbench();
    const auto &u = wb.universe();
    Rng rng(20'110'305);
    for (int trial = 0; trial < 100; ++trial) {
        // A small random pool of queries so volumes repeat and tie;
        // most records use a listed result, some a random one (spill)
        // and a few carry ids the universe lacks (poison).
        std::vector<u32> pool(1 + rng.below(150));
        for (auto &q : pool)
            q = u32(rng.below(u.numQueries()));
        workload::SearchLog log(u);
        const u64 n = rng.below(3'000);
        for (u64 i = 0; i < n; ++i) {
            const u32 q = pool[rng.below(pool.size())];
            const auto &results = u.query(q).results;
            const double kind = rng.uniform();
            if (kind < 0.85)
                log.add(recordOf(
                    q, results[rng.below(results.size())].first));
            else if (kind < 0.98)
                log.add(recordOf(q, u32(rng.below(u.numResults()))));
            else
                log.add(recordOf(u.numQueries() + u32(rng.below(4)),
                                 u32(rng.below(u.numResults() + 4))));
        }
        const u32 shards = 1 + u32(rng.below(9));
        const u32 threads = 1 + u32(rng.below(4));
        const u32 batch = 1 + u32(rng.below(4096));
        EXPECT_EQ(pipelineEncoding(u, log, shards, threads, batch),
                  sequentialBuild(u, log, 1, {}).encode())
            << "trial=" << trial << " records=" << n
            << " shards=" << shards << " threads=" << threads
            << " batch=" << batch;
    }
}

TEST(CloudUpdateService, DeltasIndependentOfPipelineShape)
{
    const Workbench &wb = sharedWorkbench();
    const auto logA = slicedLog(wb, 15'000);
    const auto logB = slicedLog(wb, 30'000);

    const auto deltasFor = [&](u32 shards, u32 threads) {
        ServiceConfig cfg;
        cfg.build.shards = shards;
        cfg.build.threads = threads;
        cfg.build.batchRecords = 2048;
        CloudUpdateService svc(wb.universe(), cfg);
        svc.ingest(logA);
        svc.ingest(logB);
        // Full install to v2 plus incremental v1 -> v2.
        return std::vector<std::string>{
            core::encodeDelta(svc.makeDelta(0, 2)),
            core::encodeDelta(svc.makeDelta(1, 2)),
        };
    };

    const auto want = deltasFor(1, 1);
    EXPECT_EQ(deltasFor(4, 2), want);
    EXPECT_EQ(deltasFor(8, 4), want);
}

TEST(CloudUpdateService, HistoryWindowEvictsOldVersions)
{
    const Workbench &wb = sharedWorkbench();
    ServiceConfig cfg;
    cfg.maxVersions = 2;
    cfg.build.shards = 2;
    cfg.build.threads = 2;
    CloudUpdateService svc(wb.universe(), cfg);
    const auto log = slicedLog(wb, 2'000);
    svc.ingest(log);
    svc.ingest(log);
    svc.ingest(log);
    EXPECT_EQ(svc.latestVersion(), 3u);
    EXPECT_FALSE(svc.hasVersion(1)) << "evicted by the window";
    EXPECT_TRUE(svc.hasVersion(2));
    EXPECT_TRUE(svc.hasVersion(3));

    // A device stuck on the evicted version gets a full install.
    const auto d = svc.makeDelta(1, 3);
    EXPECT_EQ(d.fromVersion, 0u);
    EXPECT_EQ(d.toVersion, 3u);
    EXPECT_TRUE(d.evicts.empty());
    EXPECT_TRUE(d.reranks.empty());
}

} // namespace
} // namespace pc::server
