/**
 * @file
 * Unit tests for the PocketSearch facade: community load, lookup paths,
 * operating modes, and click-driven learning.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/cache_manager.h"
#include "core/pocket_search.h"
#include "core/table_codec.h"
#include "harness/workbench.h"
#include "logs/triplets.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pc::core {
namespace {

workload::UniverseConfig
tinyUniverse()
{
    workload::UniverseConfig cfg;
    cfg.navResults = 200;
    cfg.nonNavResults = 800;
    cfg.navHead = 30;
    cfg.nonNavHead = 30;
    cfg.habitNavHead = 20;
    cfg.habitNonNavHead = 15;
    return cfg;
}

class PocketSearchTest : public ::testing::Test
{
  protected:
    PocketSearchTest()
        : uni_(tinyUniverse()), log_(uni_)
    {
        pc::nvm::FlashConfig fc;
        fc.capacity = 64 * kMiB;
        device_ = std::make_unique<pc::nvm::FlashDevice>(fc);
        store_ = std::make_unique<pc::simfs::FlashStore>(*device_);
    }

    /** Build community contents from a few hand-crafted popular pairs. */
    CacheContents
    makeContents(const std::vector<std::pair<workload::PairRef, int>>
                     &pair_volumes)
    {
        for (const auto &[pair, vol] : pair_volumes) {
            for (int i = 0; i < vol; ++i) {
                log_.add({1, SimTime(i), pair,
                          workload::DeviceType::Smartphone});
            }
        }
        const auto table = logs::TripletTable::fromLog(log_);
        CacheContentBuilder builder(uni_);
        ContentPolicy policy;
        policy.kind = ThresholdKind::VolumeShare;
        policy.volumeShare = 1.0;
        return builder.build(table, policy);
    }

    /** Canonical pair of a result. */
    workload::PairRef
    canonicalPair(u32 result)
    {
        return {uni_.result(result).queries.front().first, result};
    }

    workload::QueryUniverse uni_;
    workload::SearchLog log_;
    std::unique_ptr<pc::nvm::FlashDevice> device_;
    std::unique_ptr<pc::simfs::FlashStore> store_;
};

TEST_F(PocketSearchTest, CommunityHitServesRankedResults)
{
    PocketSearch ps(uni_, *store_);
    const auto p = canonicalPair(0);
    SimTime t = 0;
    ps.loadCommunity(makeContents({{p, 10}}), t);
    EXPECT_GT(t, 0) << "community push costs flash writes";

    auto out = ps.lookupPair(p);
    EXPECT_TRUE(out.hit);
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_EQ(out.results[0].url, uni_.result(0).url);
    EXPECT_EQ(out.hashLookupTime, QueryHashTable::kLookupLatency);
    EXPECT_GT(out.fetchTime, 0);
    EXPECT_EQ(ps.stats().queryHits, 1u);
    EXPECT_EQ(ps.stats().pairHits, 1u);
}

TEST_F(PocketSearchTest, MissOnUncachedQuery)
{
    PocketSearch ps(uni_, *store_);
    SimTime t = 0;
    ps.loadCommunity(makeContents({{canonicalPair(0), 10}}), t);
    auto out = ps.lookupPair(canonicalPair(57));
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.results.empty());
    EXPECT_EQ(ps.stats().lookups, 1u);
    EXPECT_EQ(ps.stats().queryHits, 0u);
}

TEST_F(PocketSearchTest, MaxResultsLimitsFetch)
{
    PocketSearch ps(uni_, *store_);
    // One query with three results.
    const u32 q = canonicalPair(300).query;
    SimTime t = 0;
    ps.loadCommunity(makeContents({{{q, 300}, 9},
                                   {{q, 301}, 6},
                                   {{q, 302}, 3}}),
                     t);
    auto out = ps.lookup(uni_.query(q).text, 2);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(out.results.size(), 2u)
        << "auto-suggest box shows the top two";
    EXPECT_EQ(out.results[0].url, uni_.result(300).url)
        << "highest-volume result ranks first";
}

TEST_F(PocketSearchTest, PersonalizationLearnsNewPair)
{
    PocketSearch ps(uni_, *store_);
    SimTime t = 0;
    ps.loadCommunity(makeContents({{canonicalPair(0), 10}}), t);
    const auto newp = canonicalPair(42);
    EXPECT_FALSE(ps.containsPair(newp));
    ps.recordClick(newp, t);
    EXPECT_TRUE(ps.containsPair(newp));
    EXPECT_EQ(ps.stats().pairsLearned, 1u);
    EXPECT_EQ(ps.stats().recordsLearned, 1u);
    auto out = ps.lookupPair(newp);
    EXPECT_TRUE(out.hit);
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_EQ(out.results[0].url, uni_.result(42).url);
}

TEST_F(PocketSearchTest, CommunityOnlyModeDoesNotLearn)
{
    PocketSearchConfig cfg;
    cfg.mode = CacheMode::CommunityOnly;
    PocketSearch ps(uni_, *store_, cfg);
    SimTime t = 0;
    ps.loadCommunity(makeContents({{canonicalPair(0), 10}}), t);
    const auto newp = canonicalPair(42);
    ps.recordClick(newp, t);
    EXPECT_FALSE(ps.containsPair(newp));
    EXPECT_EQ(ps.stats().pairsLearned, 0u);
}

TEST_F(PocketSearchTest, PersonalizationOnlyModeStartsCold)
{
    PocketSearchConfig cfg;
    cfg.mode = CacheMode::PersonalizationOnly;
    PocketSearch ps(uni_, *store_, cfg);
    SimTime t = 0;
    ps.loadCommunity(makeContents({{canonicalPair(0), 10}}), t);
    EXPECT_EQ(ps.pairs(), 0u) << "community push ignored when cold";
    const auto p = canonicalPair(0);
    EXPECT_FALSE(ps.lookupPair(p).hit);
    ps.recordClick(p, t);
    EXPECT_TRUE(ps.lookupPair(p).hit);
}

TEST_F(PocketSearchTest, ClickReRanksResults)
{
    PocketSearch ps(uni_, *store_);
    const u32 q = canonicalPair(300).query;
    SimTime t = 0;
    ps.loadCommunity(makeContents({{{q, 300}, 9}, {{q, 301}, 6}}), t);
    // The community ranks 300 first; the user keeps clicking 301.
    for (int i = 0; i < 3; ++i)
        ps.recordClick({q, 301}, t);
    auto out = ps.lookup(uni_.query(q).text, 2);
    ASSERT_GE(out.results.size(), 2u);
    EXPECT_EQ(out.results[0].url, uni_.result(301).url)
        << "personal clicks must override community ranking";
}

TEST_F(PocketSearchTest, SharedResultStoredOnceInFlash)
{
    PocketSearch ps(uni_, *store_);
    const u32 q1 = canonicalPair(5).query;
    SimTime t = 0;
    // Two queries -> same result: one record in flash.
    CacheContents contents = makeContents({{{q1, 5}, 9}});
    ScoredPair extra;
    extra.pair = {canonicalPair(6).query, 5};
    extra.score = 0.5;
    contents.pairs.push_back(extra);
    ps.loadCommunity(contents, t);
    EXPECT_EQ(ps.pairs(), 2u);
    EXPECT_EQ(ps.db().records(), 1u);
}

TEST_F(PocketSearchTest, FootprintAccessors)
{
    PocketSearch ps(uni_, *store_);
    SimTime t = 0;
    ps.loadCommunity(makeContents({{canonicalPair(0), 10},
                                   {canonicalPair(1), 5}}),
                     t);
    EXPECT_GT(ps.dramBytes(), 0u);
    EXPECT_GT(ps.flashLogicalBytes(), 0u);
    EXPECT_GE(ps.flashPhysicalBytes(), ps.flashLogicalBytes());
}

TEST_F(PocketSearchTest, CacheModeNames)
{
    EXPECT_EQ(cacheModeName(CacheMode::Combined), "combined");
    EXPECT_EQ(cacheModeName(CacheMode::CommunityOnly), "community-only");
    EXPECT_EQ(cacheModeName(CacheMode::PersonalizationOnly),
              "personalization-only");
}

// The serve path walks a query's chain once for the lookup and once
// for the click. Over seeded mixes of installs, clicks on new and
// cached pairs, reranks and evictions, what each single walk reports
// must equal what the separate walks it replaced read: the top score
// applyClick reports against lookup().front(), bit for bit, and
// lookupPair's pair flag against containsPair.
TEST_F(PocketSearchTest, SingleWalksMatchSeparateWalks)
{
    // -0.0 ties 0.0 in the ranking; the tie-break decides which bits
    // come out on top.
    const double scores[] = {0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 3.0};
    u64 clicks = 0, cached_lookups = 0;
    for (u64 seed = 1; seed <= 25; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        pc::nvm::FlashConfig fc;
        fc.capacity = 64 * kMiB;
        pc::nvm::FlashDevice device(fc);
        pc::simfs::FlashStore store(device);
        PocketSearch ps(uni_, store);
        // A few queries with many candidate results: long chains.
        std::vector<u32> pool;
        for (int i = 0; i < 6; ++i)
            pool.push_back(u32(rng.below(uni_.numQueries())));
        std::vector<workload::PairRef> seen;
        SimTime t = 0;
        for (int step = 0; step < 300; ++step) {
            workload::PairRef p{pool[rng.below(pool.size())],
                                u32(rng.below(60))};
            if (!seen.empty() && rng.below(2) == 0)
                p = seen[rng.below(seen.size())];
            seen.push_back(p);
            const std::string &q = uni_.query(p.query).text;
            const u64 uh = urlHash(uni_.result(p.result).url);
            const double score = scores[rng.below(std::size(scores))];
            switch (rng.below(6)) {
              case 0:
                ps.installPair(p, score, false, t);
                break;
              case 1: {
                double top = 42.0;
                const bool cached = ps.table().containsPair(q, uh);
                ASSERT_EQ(ps.table().applyClick(q, uh,
                                                0.05 * double(1 + rng.below(8)),
                                                &top),
                          cached);
                ASSERT_EQ(std::bit_cast<u64>(top),
                          std::bit_cast<u64>(
                              ps.table().lookup(q).front().score));
                ++clicks;
                break;
              }
              case 2:
                ps.recordClick(p, t);
                break;
              case 3:
                ps.setPairScore(p, score);
                break;
              case 4:
                ps.evictPair(p);
                break;
              default: {
                const LookupOutcome out = ps.lookupPair(p, 2);
                ASSERT_EQ(out.pairCached, ps.containsPair(p));
                ASSERT_EQ(out.hit, !ps.table().lookup(q).empty());
                cached_lookups += out.pairCached;
                break;
              }
            }
        }
    }
    EXPECT_GT(clicks, 500u);
    EXPECT_GT(cached_lookups, 100u);
}

/** A fresh phone: flash, file store and search cache. */
struct Phone
{
    explicit Phone(const QueryUniverse &uni)
    {
        pc::nvm::FlashConfig fc;
        fc.capacity = 64 * kMiB;
        device = std::make_unique<pc::nvm::FlashDevice>(fc);
        store = std::make_unique<pc::simfs::FlashStore>(*device);
        ps = std::make_unique<PocketSearch>(uni, *store);
    }

    /** Every database file's bytes, in fileNames() order. */
    std::vector<std::string>
    dbFiles() const
    {
        std::vector<std::string> out;
        SimTime sink = 0;
        for (const auto &name : ps->db().fileNames()) {
            const auto id = store->lookup(name);
            std::string bytes;
            store->read(id, 0, store->size(id), bytes, sink);
            out.push_back(std::move(bytes));
        }
        return out;
    }

    std::unique_ptr<pc::nvm::FlashDevice> device;
    std::unique_ptr<pc::simfs::FlashStore> store;
    std::unique_ptr<PocketSearch> ps;
};

/** Expect two phones to hold byte-identical caches and flash. */
void
expectSamePhone(const Phone &a, const Phone &b)
{
    EXPECT_EQ(encodeTable(a.ps->table()), encodeTable(b.ps->table()));

    const auto &sa = a.ps->suggestIndex();
    const auto &sb = b.ps->suggestIndex();
    EXPECT_EQ(sa.size(), sb.size());
    EXPECT_EQ(sa.memoryBytes(), sb.memoryBytes());
    const auto dump_a = sa.suggest("", ~0u);
    const auto dump_b = sb.suggest("", ~0u);
    ASSERT_EQ(dump_a.size(), dump_b.size());
    for (std::size_t i = 0; i < dump_a.size(); ++i) {
        EXPECT_EQ(dump_a[i].query, dump_b[i].query);
        EXPECT_EQ(dump_a[i].score, dump_b[i].score);
    }

    const auto files_a = a.dbFiles();
    const auto files_b = b.dbFiles();
    ASSERT_EQ(files_a.size(), files_b.size());
    for (std::size_t i = 0; i < files_a.size(); ++i) {
        // Plain bool: a mismatch would otherwise print whole files.
        EXPECT_TRUE(files_a[i] == files_b[i]) << a.ps->db().fileNames()[i];
    }
    EXPECT_EQ(a.device->pagesProgrammed(), b.device->pagesProgrammed());
    EXPECT_EQ(a.device->blocksErased(), b.device->blocksErased());
}

TEST(PocketSearchInstall, LoadCommunityMatchesInstallPairPerPair)
{
    harness::Workbench wb(harness::smallWorkbenchConfig());
    const CacheContents &contents = wb.communityCache();
    ASSERT_GT(contents.pairs.size(), 100u);

    Phone bulk(wb.universe());
    SimTime bulk_time = 0;
    bulk.ps->loadCommunity(contents, bulk_time);

    Phone single(wb.universe());
    SimTime single_time = 0;
    for (const auto &sp : contents.pairs)
        single.ps->installPair(sp.pair, sp.score, /*user_accessed=*/false,
                               single_time);

    expectSamePhone(bulk, single);
    EXPECT_EQ(bulk_time, single_time);
    EXPECT_GT(bulk_time, 0);

    // The cache manager's rebuild against a later month: the bulk phone
    // runs update(), the other clears its table and installs the
    // planned list one pair at a time. Clicks give the merge retained
    // user pairs and conflicts.
    for (Phone *p : {&bulk, &single}) {
        SimTime t = 0;
        for (std::size_t i = 0; i < 3; ++i)
            p->ps->recordClick(contents.pairs[i * 7].pair, t);
        p->ps->recordClick({wb.universe().numQueries() - 1,
                            wb.universe().query(
                                wb.universe().numQueries() - 1)
                                .results.front()
                                .first},
                           t);
    }
    const auto fresh = logs::TripletTable::fromLog(wb.nextCommunityMonth());
    const CacheManager manager(wb.universe());
    const UpdatePolicy policy;

    bulk_time = 0;
    const UpdateStats got = manager.update(*bulk.ps, fresh, policy, bulk_time);

    UpdateStats want;
    const auto items = manager.planRebuild(*single.ps, fresh, policy, want);
    single_time = 0;
    single.ps->clearTable();
    for (const auto &item : items) {
        if (single.ps->installPair(item.pair, item.score, item.accessed,
                                   single_time))
            ++want.recordsPatched;
    }

    expectSamePhone(bulk, single);
    EXPECT_EQ(bulk_time, single_time);
    EXPECT_EQ(got.recordsPatched, want.recordsPatched);
    EXPECT_GT(got.recordsPatched, 0u);
    EXPECT_GT(got.pairsKept, 0u);
    EXPECT_EQ(got.pairsKept, want.pairsKept);
    EXPECT_EQ(got.pairsAdded, want.pairsAdded);
    EXPECT_EQ(got.conflicts, want.conflicts);
}

} // namespace
} // namespace pc::core
