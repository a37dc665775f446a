/**
 * @file
 * Unit and property tests for the 32-file flash result database
 * (Figure 13 / Figure 12 behaviour).
 */

#include <gtest/gtest.h>

#include "core/result_db.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/strings.h"

namespace pc::core {
namespace {

pc::nvm::FlashConfig
deviceConfig()
{
    pc::nvm::FlashConfig cfg;
    cfg.capacity = 64 * kMiB;
    return cfg;
}

workload::ResultInfo
makeResult(int i, bool nav = true)
{
    workload::ResultInfo r;
    r.url = "www.site" + std::to_string(i) + ".com";
    r.title = "site" + std::to_string(i);
    r.description = "Description of site " + std::to_string(i) + ".";
    r.navigational = nav;
    return r;
}

class ResultDbTest : public ::testing::Test
{
  protected:
    ResultDbTest() : device_(deviceConfig()), store_(device_) {}

    pc::nvm::FlashDevice device_;
    pc::simfs::FlashStore store_;
};

TEST_F(ResultDbTest, AddFetchRoundTrip)
{
    ResultDatabase db(store_);
    SimTime t = 0;
    const auto r = makeResult(1);
    EXPECT_TRUE(db.addRecord(r, t));
    EXPECT_TRUE(db.contains(urlHash(r.url)));
    RecordView rec;
    SimTime fetch = 0;
    ASSERT_TRUE(db.fetch(urlHash(r.url), rec, fetch));
    EXPECT_EQ(rec.title, r.title);
    EXPECT_EQ(rec.description, r.description);
    EXPECT_EQ(rec.url, r.url);
    EXPECT_GT(fetch, 0);
}

TEST_F(ResultDbTest, DuplicateAddIsNoop)
{
    ResultDatabase db(store_);
    SimTime t = 0;
    const auto r = makeResult(1);
    EXPECT_TRUE(db.addRecord(r, t));
    EXPECT_FALSE(db.addRecord(r, t));
    EXPECT_EQ(db.records(), 1u);
}

TEST_F(ResultDbTest, FetchMissingReturnsFalse)
{
    ResultDatabase db(store_);
    RecordView rec;
    SimTime t = 0;
    EXPECT_FALSE(db.fetch(12345, rec, t));
    EXPECT_EQ(t, 0) << "a miss is resolved in memory, no flash cost";
}

TEST_F(ResultDbTest, RecordsSpreadAcrossFiles)
{
    DbConfig cfg;
    cfg.numFiles = 8;
    ResultDatabase db(store_, cfg);
    SimTime t = 0;
    for (int i = 0; i < 200; ++i)
        db.addRecord(makeResult(i), t);
    // Every file should hold some records (hash spreading).
    int used_files = 0;
    for (u32 f = 0; f < cfg.numFiles; ++f) {
        const auto id = store_.lookup(
            pc::strformat("psearch_%02u.dat", f));
        if (store_.size(id) > 0)
            ++used_files;
    }
    EXPECT_EQ(used_files, 8);
    EXPECT_EQ(db.records(), 200u);
}

TEST_F(ResultDbTest, FileOfMatchesHashModulo)
{
    DbConfig cfg;
    cfg.numFiles = 32;
    ResultDatabase db(store_, cfg);
    const auto r = makeResult(9);
    EXPECT_EQ(db.fileOf(urlHash(r.url)), urlHash(r.url) % 32);
}

TEST_F(ResultDbTest, LogicalAndPhysicalBytes)
{
    ResultDatabase db(store_);
    SimTime t = 0;
    for (int i = 0; i < 50; ++i)
        db.addRecord(makeResult(i), t);
    EXPECT_GE(db.logicalBytes(), 50u * 480u);
    EXPECT_GE(db.physicalBytes(), db.logicalBytes());
    // Physical is block-rounded per file.
    EXPECT_EQ(db.physicalBytes() % store_.config().allocUnit, 0u);
}

TEST_F(ResultDbTest, PaddedRecordSizeMatchesModel)
{
    ResultDatabase db(store_);
    SimTime t = 0;
    const auto r = makeResult(3);
    db.addRecord(r, t);
    EXPECT_EQ(db.logicalBytes(),
              workload::QueryUniverse::recordSize(r));
}

TEST_F(ResultDbTest, TwoCloudletsShareAStore)
{
    ResultDatabase search(store_, {}, "search");
    ResultDatabase ads(store_, {}, "ads");
    SimTime t = 0;
    search.addRecord(makeResult(1), t);
    ads.addRecord(makeResult(2), t);
    EXPECT_EQ(search.records(), 1u);
    EXPECT_EQ(ads.records(), 1u);
    RecordView rec;
    EXPECT_TRUE(search.fetch(urlHash(makeResult(1).url), rec, t));
    EXPECT_FALSE(search.fetch(urlHash(makeResult(2).url), rec, t));
}

/** Figure 12 property: fetch time falls then flattens with file count,
 *  while fragmentation (physical bytes) grows. */
class FileCountSweep : public ::testing::TestWithParam<u32>
{
};

TEST_P(FileCountSweep, FetchWorksAtAnyFileCount)
{
    pc::nvm::FlashDevice device(deviceConfig());
    pc::simfs::FlashStore store(device);
    DbConfig cfg;
    cfg.numFiles = GetParam();
    ResultDatabase db(store, cfg);
    SimTime t = 0;
    for (int i = 0; i < 300; ++i)
        db.addRecord(makeResult(i), t);
    RecordView rec;
    SimTime fetch = 0;
    for (int i = 0; i < 300; i += 17) {
        ASSERT_TRUE(db.fetch(urlHash(makeResult(i).url), rec, fetch));
        EXPECT_EQ(rec.url, makeResult(i).url);
    }
}

INSTANTIATE_TEST_SUITE_P(FileCounts, FileCountSweep,
                         ::testing::Values(1u, 2u, 8u, 32u, 128u));

// Pins the flat layout's fetch cost model (Figures 12 and 13): the
// open, the whole-header parse and the record read, in simulated time
// and in the "simfs.*" counters, plus the decoded records. A host-side
// shortcut inside fetch must leave every number here unchanged.
TEST_F(ResultDbTest, FetchCostGolden)
{
    DbConfig cfg;
    cfg.numFiles = 4;
    ResultDatabase db(store_, cfg);
    SimTime t = 0;
    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(db.addRecord(makeResult(i, i % 2 == 0), t));
    obs::MetricRegistry reg;
    store_.attachMetrics(&reg);

    SimTime fetch = 0;
    for (int i = 0; i < 40; i += 3) {
        const auto r = makeResult(i, i % 2 == 0);
        RecordView rec;
        ASSERT_TRUE(db.fetch(urlHash(r.url), rec, fetch));
        EXPECT_EQ(rec.title, r.title);
        EXPECT_EQ(rec.description, r.description);
        EXPECT_EQ(rec.url, r.url);
    }
    EXPECT_EQ(fetch, SimTime(67640600));
    EXPECT_EQ(reg.counter("simfs.opens").value(), 14u);
    EXPECT_EQ(reg.counter("simfs.reads").value(), 28u);
    EXPECT_EQ(reg.counter("simfs.bytes_read").value(), 10550u);
    EXPECT_EQ(reg.counter("simfs.read_ns").value(), 4257600u);
}

TEST(ResultDbFigure12, SingleFileSlowerThan32Files)
{
    // One big header per lookup (1 file) must cost more than the
    // 32-file layout; 32 files must waste more flash than 1 file.
    auto measure = [](u32 files, SimTime &fetch_time, Bytes &physical) {
        pc::nvm::FlashDevice device(deviceConfig());
        pc::simfs::FlashStore store(device);
        DbConfig cfg;
        cfg.numFiles = files;
        ResultDatabase db(store, cfg);
        SimTime t = 0;
        for (int i = 0; i < 2500; ++i)
            db.addRecord(makeResult(i), t);
        fetch_time = 0;
        RecordView rec;
        for (int i = 0; i < 2500; i += 100)
            db.fetch(urlHash(makeResult(i).url), rec, fetch_time);
        physical = db.physicalBytes();
    };
    SimTime t1 = 0, t32 = 0;
    Bytes p1 = 0, p32 = 0;
    measure(1, t1, p1);
    measure(32, t32, p32);
    EXPECT_GT(t1, t32) << "single-file header parse dominates";
    EXPECT_GE(p32, p1) << "more files, more block-rounding waste";
}

// Flat records carry no checksum: a wear-correlated bit flip that lands
// on a record's `|` or `\n` leaves it unparsable. fetch() must report
// such a record missing (callers drop it) instead of aborting.
TEST(ResultDbBitFlips, UnparsableFlatRecordIsAMissNotAnAbort)
{
    pc::nvm::FlashDevice device(deviceConfig());
    pc::simfs::FlashStore store(device);
    SimTime t = 0;
    // Wear 16 blocks down with 400 rewrites of a 64 KiB file, then free
    // them: the database's files reuse them (LIFO).
    const auto wear = store.create("wear");
    for (int pass = 0; pass < 400; ++pass)
        store.truncateAndWrite(
            wear, std::string(64 * kKiB, char('a' + pass % 26)), t);
    store.remove(wear, t);

    ResultDatabase db(store);
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(db.addRecord(makeResult(i), t));

    pc::fault::FaultConfig fcfg;
    fcfg.seed = 7;
    fcfg.storage.bitFlipPerReadPerKiloErase = 0.5;
    pc::fault::FaultPlan plan(fcfg);
    store.attachFaults(&plan);

    u64 found = 0;
    u64 dropped = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 200; ++i) {
            RecordView rec;
            SimTime fetch = 0;
            if (db.fetch(urlHash(makeResult(i).url), rec, fetch))
                ++found;
            else
                ++dropped;
            EXPECT_GT(fetch, 0) << "a dropped record's reads are charged";
        }
    }
    store.attachFaults(nullptr);
    EXPECT_GT(plan.stats().bitFlips, 0u);
    EXPECT_GT(dropped, 0u) << "no flip hit a separator: scenario too mild";
    EXPECT_GT(found, dropped);

    // Flips land in the read buffer, never in flash: with the plan
    // detached every record parses again, intact.
    for (int i = 0; i < 200; ++i) {
        const auto r = makeResult(i);
        RecordView rec;
        SimTime fetch = 0;
        ASSERT_TRUE(db.fetch(urlHash(r.url), rec, fetch));
        EXPECT_EQ(rec.title, r.title);
        EXPECT_EQ(rec.description, r.description);
        EXPECT_EQ(rec.url, r.url);
    }
}

} // namespace
} // namespace pc::core
