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
#include "fault/fault_plan.h"
#include "harness/workbench.h"
#include "logs/triplets.h"
#include "obs/metrics.h"
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

    const PairProbe probe = ps.servePair(p);
    EXPECT_TRUE(probe.hit);
    EXPECT_TRUE(probe.pairCached);
    EXPECT_EQ(probe.hashLookupTime, QueryHashTable::kLookupLatency);
    EXPECT_GT(probe.fetchTime, 0);
    EXPECT_EQ(probe.queryFnv, fnv1a(uni_.query(p.query).text));
    EXPECT_EQ(probe.urlHash, urlHash(uni_.result(0).url));
    EXPECT_EQ(ps.stats().queryHits, 1u);
    EXPECT_EQ(ps.stats().pairHits, 1u);

    // lookup() reads the same records and copies them out.
    const auto out = ps.lookup(uni_.query(p.query).text);
    EXPECT_TRUE(out.hit);
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_EQ(out.results[0].url, uni_.result(0).url);
    EXPECT_EQ(out.urlHashes, std::vector<u64>{probe.urlHash});
    EXPECT_EQ(out.fetchTime, probe.fetchTime);
    EXPECT_EQ(ps.stats().pairHits, 1u) << "lookup() probes no pair";
}

TEST_F(PocketSearchTest, MissOnUncachedQuery)
{
    PocketSearch ps(uni_, *store_);
    SimTime t = 0;
    ps.loadCommunity(makeContents({{canonicalPair(0), 10}}), t);
    const PairProbe out = ps.servePair(canonicalPair(57));
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.pairCached);
    EXPECT_EQ(out.fetchTime, 0);
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
    EXPECT_TRUE(ps.servePair(newp).pairCached);
    auto out = ps.lookup(uni_.query(newp.query).text);
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
    EXPECT_FALSE(ps.servePair(p).hit);
    ps.recordClick(p, t);
    EXPECT_TRUE(ps.servePair(p).hit);
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
// servePair's pair flag against containsPair.
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
                const PairProbe out = ps.servePair(p, 2);
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

// servePair keeps no records, yet it must cost exactly what lookup()
// costs: the same probe and fetch charges, flash reads and fault-plan
// draws. Two twin phones on worn flash under the same bit-flip plan
// answer the same query stream, one through servePair, one through
// lookup(); flips that hit a record's `|` or `\n` separator make
// lookup() drop that record, and must not make the twins diverge.
TEST_F(PocketSearchTest, ServePairChargesWhatLookupCharges)
{
    std::vector<std::pair<workload::PairRef, int>> popular;
    for (u32 r = 0; r < 150; ++r)
        popular.push_back({canonicalPair(r), int(1 + r % 7)});
    // Extra results for a few queries: chains longer than two.
    for (u32 r = 150; r < 170; ++r)
        popular.push_back({{canonicalPair(r % 10).query, r}, 2});
    const CacheContents contents = makeContents(popular);

    struct Twin
    {
        explicit Twin(const QueryUniverse &uni, const CacheContents &c)
            : device(flashConfig()), store(device), plan(faultConfig())
        {
            SimTime t = 0;
            // Wear blocks down, then free them: the database files
            // reuse them (LIFO), so its reads can flip bits.
            const auto wear = store.create("wear");
            for (int pass = 0; pass < 400; ++pass)
                store.truncateAndWrite(
                    wear, std::string(64 * kKiB, char('a' + pass % 26)),
                    t);
            store.remove(wear, t);
            ps = std::make_unique<PocketSearch>(uni, store);
            ps->loadCommunity(c, t);
            store.attachMetrics(&registry);
            store.attachFaults(&plan);
        }

        static pc::nvm::FlashConfig
        flashConfig()
        {
            pc::nvm::FlashConfig fc;
            fc.capacity = 64 * kMiB;
            return fc;
        }

        static pc::fault::FaultConfig
        faultConfig()
        {
            pc::fault::FaultConfig f;
            f.seed = 13;
            f.storage.bitFlipPerReadPerKiloErase = 0.5;
            return f;
        }

        pc::nvm::FlashDevice device;
        pc::simfs::FlashStore store;
        pc::fault::FaultPlan plan;
        obs::MetricRegistry registry;
        std::unique_ptr<PocketSearch> ps;
    };
    Twin probe(uni_, contents);
    Twin lookup(uni_, contents);

    Rng rng(5);
    u64 hits = 0, pair_hits = 0, dropped = 0;
    for (int i = 0; i < 3000; ++i) {
        SCOPED_TRACE(i);
        // Cached pairs, cached queries with another result, and misses.
        const u32 r = u32(rng.below(220));
        workload::PairRef p = canonicalPair(r);
        if (rng.below(4) == 0)
            p.result = u32(rng.below(uni_.numResults()));
        const PairProbe got = probe.ps->servePair(p);
        const LookupOutcome want =
            lookup.ps->lookup(uni_.query(p.query).text);
        ASSERT_EQ(got.hit, want.hit);
        ASSERT_EQ(got.pairCached, lookup.ps->containsPair(p));
        ASSERT_EQ(got.hashLookupTime, want.hashLookupTime);
        ASSERT_EQ(got.fetchTime, want.fetchTime);
        ASSERT_EQ(probe.plan.rngDraws(), lookup.plan.rngDraws());
        hits += got.hit;
        pair_hits += got.pairCached;
        if (want.hit) {
            const auto refs =
                lookup.ps->table().lookup(uni_.query(p.query).text);
            dropped += std::min<std::size_t>(2, refs.size()) -
                       want.results.size();
        }
    }
    EXPECT_GT(hits, 2000u);
    EXPECT_GT(pair_hits, 1500u);
    EXPECT_GT(probe.plan.stats().bitFlips, 0u);
    EXPECT_GT(dropped, 0u) << "no flip hit a separator: scenario too mild";
    EXPECT_EQ(probe.plan.stats().bitFlips, lookup.plan.stats().bitFlips);
    EXPECT_EQ(probe.ps->stats().lookups, lookup.ps->stats().lookups);
    EXPECT_EQ(probe.ps->stats().queryHits, lookup.ps->stats().queryHits);
    EXPECT_EQ(probe.ps->stats().pairHits, pair_hits);

    const auto simfs = [](const obs::MetricRegistry &reg) {
        auto counters = reg.snapshot().counters;
        std::erase_if(counters, [](const auto &c) {
            return c.first.rfind("simfs.", 0) != 0;
        });
        return counters;
    };
    const auto counters = simfs(probe.registry);
    EXPECT_GT(counters.size(), 5u);
    EXPECT_EQ(counters, simfs(lookup.registry));
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
