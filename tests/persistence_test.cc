/**
 * @file
 * Power-cycle tests (Section 3.3): the result database re-attaches to
 * its flash files, and the serialized index snapshot restores the full
 * cache state into a fresh PocketSearch.
 */

#include <gtest/gtest.h>

#include "core/persistence.h"
#include "util/hash.h"

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

class PowerCycleTest : public ::testing::Test
{
  protected:
    PowerCycleTest() : uni_(tinyUniverse())
    {
        pc::nvm::FlashConfig fc;
        fc.capacity = 128 * kMiB;
        flash_ = std::make_unique<pc::nvm::FlashDevice>(fc);
        store_ = std::make_unique<pc::simfs::FlashStore>(*flash_);
    }

    workload::PairRef
    canonicalPair(u32 r)
    {
        return {uni_.result(r).queries.front().first, r};
    }

    workload::QueryUniverse uni_;
    std::unique_ptr<pc::nvm::FlashDevice> flash_;
    std::unique_ptr<pc::simfs::FlashStore> store_;
};

TEST_F(PowerCycleTest, ResultDatabaseReattachesAndFetches)
{
    // Boot 1: write some records.
    std::vector<u64> keys;
    {
        ResultDatabase db(*store_);
        SimTime t = 0;
        for (u32 r = 0; r < 30; ++r) {
            db.addRecord(uni_.result(r), t);
            keys.push_back(urlHash(uni_.result(r).url));
        }
        EXPECT_EQ(db.records(), 30u);
    } // "power off": the in-memory location map dies with the object.

    // Boot 2: a fresh database over the same store must recover.
    ResultDatabase db2(*store_);
    EXPECT_EQ(db2.records(), 30u);
    for (u32 r = 0; r < 30; ++r) {
        RecordView rec;
        SimTime t = 0;
        ASSERT_TRUE(db2.fetch(keys[r], rec, t)) << "record " << r;
        EXPECT_EQ(rec.url, uni_.result(r).url);
        EXPECT_EQ(rec.title, uni_.result(r).title);
    }
    // And it keeps working for new records.
    SimTime t = 0;
    EXPECT_FALSE(db2.addRecord(uni_.result(0), t)) << "no duplicates";
    EXPECT_TRUE(db2.addRecord(uni_.result(100), t));
}

TEST_F(PowerCycleTest, FullCacheSurvivesPowerCycle)
{
    SimTime t = 0;
    // Boot 1: build a cache, personalize it, snapshot the index.
    {
        PocketSearch ps(uni_, *store_);
        for (u32 r = 0; r < 20; ++r)
            ps.installPair(canonicalPair(r), 0.5 + 0.01 * r, false, t);
        ps.recordClick(canonicalPair(3), t); // accessed + re-scored
        ps.recordClick(canonicalPair(50), t); // learned pair
        const auto written =
            persistIndex(ps, *store_, "psearch.snapshot", t);
        EXPECT_TRUE(written.ok);
        EXPECT_GT(written.bytes, 0u);
    }

    // Boot 2: fresh objects over the surviving flash.
    PocketSearch ps2(uni_, *store_);
    EXPECT_EQ(ps2.pairs(), 0u) << "index is volatile";
    EXPECT_EQ(ps2.db().records(), 21u)
        << "records survived on flash by themselves";

    const auto res = restoreIndex(ps2, *store_, "psearch.snapshot");
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.pairs, 21u);
    EXPECT_GT(res.loadTime, 0) << "the reload is the Section 3.3 cost";

    // Everything is back: hits, learned pair, scores, flags, suggest.
    EXPECT_TRUE(ps2.containsPair(canonicalPair(3)));
    EXPECT_TRUE(ps2.containsPair(canonicalPair(50)));
    auto out = ps2.lookup(uni_.query(canonicalPair(3).query).text);
    ASSERT_TRUE(out.hit);
    ASSERT_FALSE(out.results.empty());
    EXPECT_EQ(out.results[0].url, uni_.result(3).url);
    const auto refs =
        ps2.table().lookup(uni_.query(canonicalPair(3).query).text);
    ASSERT_FALSE(refs.empty());
    EXPECT_GT(refs[0].score, 1.0) << "click-bumped score restored";
    EXPECT_TRUE(refs[0].userAccessed) << "accessed flag restored";
    EXPECT_GT(ps2.suggestIndex().size(), 0u) << "suggest box restored";
}

TEST_F(PowerCycleTest, RestoreWithoutSnapshotFails)
{
    PocketSearch ps(uni_, *store_);
    const auto res = restoreIndex(ps, *store_, "missing.snapshot");
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.pairs, 0u);
}

TEST_F(PowerCycleTest, CorruptSnapshotRejected)
{
    SimTime t = 0;
    PocketSearch ps(uni_, *store_);
    ps.installPair(canonicalPair(0), 0.9, false, t);
    persistIndex(ps, *store_, "snap", t);

    // Truncate the only snapshot slot mid-record.
    const auto f = store_->lookup("snap.s0");
    ASSERT_NE(f, pc::simfs::kNoFile);
    std::string blob;
    store_->read(f, 0, store_->size(f), blob, t);
    blob.resize(blob.size() - 3);
    store_->truncateAndWrite(f, blob, t);

    PocketSearch ps2(uni_, *store_);
    const auto res = restoreIndex(ps2, *store_, "snap");
    EXPECT_FALSE(res.ok) << "truncated snapshot must be rejected";
    EXPECT_EQ(res.corruptSlots, 1u);
    EXPECT_EQ(ps2.pairs(), 0u) << "no partial state may load";
}

TEST_F(PowerCycleTest, SnapshotOverwriteKeepsLatestState)
{
    SimTime t = 0;
    PocketSearch ps(uni_, *store_);
    ps.installPair(canonicalPair(0), 0.9, false, t);
    persistIndex(ps, *store_, "snap", t);
    ps.installPair(canonicalPair(1), 0.8, false, t);
    persistIndex(ps, *store_, "snap", t); // overwrite

    PocketSearch ps2(uni_, *store_);
    const auto res = restoreIndex(ps2, *store_, "snap");
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.pairs, 2u);
    EXPECT_EQ(res.sequence, 2u);
    EXPECT_TRUE(ps2.containsPair(canonicalPair(1)));
}

} // namespace
} // namespace pc::core
