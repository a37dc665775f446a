/**
 * @file
 * Golden CRC-32 pins of every byte format the system ships or
 * persists: the hash-table upload, the framed community delta, the
 * canonical community model, an index snapshot slot, one pc::store
 * slot, and the chaos checker's table digests over upload records. Each is built from fixed inputs, so the pins change only if a
 * format's bytes do — a refactor of the encoders must leave them
 * untouched.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/delta.h"
#include "core/persistence.h"
#include "core/table_codec.h"
#include "harness/fleet.h"
#include "nvm/flash_device.h"
#include "server/model.h"
#include "store/engine.h"
#include "util/crc32.h"

namespace pc {
namespace {

TEST(WireGolden, EncodeTable)
{
    core::QueryHashTable t;
    t.insert("youtube", 111, 0.9, true);
    t.insert("youtube", 222, 0.1, false);
    t.insert("facebook", 333, 1.5, true);
    const std::string blob = core::encodeTable(t);
    EXPECT_EQ(blob.size(), core::wireSize(3));
    EXPECT_EQ(crc32(blob), 0x11b1477fu);
}

TEST(WireGolden, FrameDelta)
{
    core::CommunityDelta d;
    d.fromVersion = 3;
    d.toVersion = 4;
    d.adds = {{{7, 70}, 0.625, 900}, {{8, 81}, 0.125, 12}};
    d.evicts = {{1, 10}, {2, 20}, {2, 21}};
    d.reranks = {{{5, 50}, 0.75, 400}};
    const std::string frame = core::frameDelta(d);
    EXPECT_EQ(crc32(frame), 0x18d6bd78u);
    core::FrameError err;
    const auto back = core::unframeDelta(frame, &err);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(core::encodeDelta(*back), core::encodeDelta(d));
}

TEST(WireGolden, CommunityModelEncode)
{
    server::CommunityModel m;
    m.version = 9;
    m.table = logs::TripletTable::fromSortedRows(
        {{{4, 40}, 500}, {{4, 41}, 300}, {{6, 60}, 300}, {{9, 90}, 2}});
    m.contents.pairs = {{{4, 40}, 0.625, 500}, {{4, 41}, 0.375, 300}};
    m.contents.uniqueResults = 2;
    m.contents.flashBytes = 12345;
    m.contents.dramBytes = 678;
    m.contents.cumulativeShare = 0.7;
    EXPECT_EQ(crc32(m.encode()), 0x3b4267b5u);
}

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

TEST(WireGolden, PersistIndexSnapshotSlot)
{
    const workload::QueryUniverse uni(tinyUniverse());
    nvm::FlashConfig fc;
    fc.capacity = 128 * kMiB;
    nvm::FlashDevice flash(fc);
    simfs::FlashStore store(flash);
    core::PocketSearch ps(uni, store);
    SimTime t = 0;
    for (u32 r = 0; r < 12; ++r) {
        const workload::PairRef p{uni.result(r).queries.front().first, r};
        ps.installPair(p, 0.5 + 0.01 * r, false, t);
    }
    ps.recordClick({uni.result(3).queries.front().first, 3}, t);
    const auto written = core::persistIndex(ps, store, "golden.snap", t);
    ASSERT_TRUE(written.ok);
    const std::string slot(store.contents(store.lookup(written.slot)));
    EXPECT_EQ(slot.size(), written.bytes);
    EXPECT_EQ(crc32(slot), 0x2144df1cu);
}

TEST(WireGolden, StoreSlot)
{
    nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    nvm::FlashDevice device(fc);
    simfs::FlashStore store(device);
    store::StoreEngine eng(store, store::StoreEngineConfig{});
    SimTime t = 0;
    ASSERT_TRUE(eng.put(0x0123456789abcdefull, "pocket cloudlet slot", t));
    eng.flush(t);
    const auto names = eng.fileNames();
    ASSERT_EQ(names.size(), 1u);
    const std::string_view slab = store.contents(store.lookup(names[0]));
    const std::size_t slot = store::StoreEngine::kHeaderSize + 20;
    ASSERT_GE(slab.size(), slot);
    EXPECT_EQ(crc32(slab.substr(0, slot)), 0x51a2aa68u);
}

TEST(WireGolden, ChaosTableDigests)
{
    const workload::QueryUniverse uni(tinyUniverse());
    core::CacheContents contents;
    for (u32 r = 0; r < 12; ++r) {
        const workload::PairRef p{uni.result(r).queries.front().first, r};
        contents.pairs.push_back({p, 0.25 + 0.05 * r, 100 - r});
    }
    EXPECT_EQ(harness::contentsDigest(contents, uni), 0x267d0d59u);

    nvm::FlashConfig fc;
    fc.capacity = 128 * kMiB;
    nvm::FlashDevice flash(fc);
    simfs::FlashStore store(flash);
    core::PocketSearch ps(uni, store);
    SimTime t = 0;
    for (const auto &sp : contents.pairs)
        ps.installPair(sp.pair, sp.score, false, t);
    ps.recordClick(contents.pairs[5].pair, t);
    EXPECT_EQ(harness::deviceTableDigest(ps), 0x63d58f8eu);
}

/**
 * The device-table digest as a round trip through the upload codec:
 * encodeTable, decodeTable, sort by (query fnv, url hash), re-encode
 * each record, one CRC-32. deviceTableDigest must equal it.
 */
u32
roundTripTableDigest(const core::PocketSearch &ps)
{
    auto pairs = core::decodeTable(core::encodeTable(ps.table()));
    EXPECT_TRUE(pairs.has_value());
    if (!pairs)
        return 0;
    std::sort(pairs->begin(), pairs->end(),
              [](const core::WirePair &a, const core::WirePair &b) {
                  if (a.queryFnv != b.queryFnv)
                      return a.queryFnv < b.queryFnv;
                  return a.urlHash < b.urlHash;
              });
    std::string records;
    for (const auto &w : *pairs)
        core::appendWireRecord(records, w);
    return crc32(records);
}

// The chaos checker's device digest reads the table directly; it must
// give the digest of the table's upload blob: for an empty table, for
// queries with two cached results, and with accessed flags set by an
// install and by a click.
TEST(WireGolden, DeviceTableDigestMatchesUploadRoundTrip)
{
    const workload::QueryUniverse uni(tinyUniverse());
    nvm::FlashConfig fc;
    fc.capacity = 128 * kMiB;
    nvm::FlashDevice flash(fc);
    simfs::FlashStore store(flash);
    core::PocketSearch ps(uni, store);
    EXPECT_EQ(harness::deviceTableDigest(ps), roundTripTableDigest(ps));
    EXPECT_EQ(harness::deviceTableDigest(ps), crc32(""));

    SimTime t = 0;
    u32 two_result_queries = 0;
    for (u32 q = 0; q < uni.numQueries() && two_result_queries < 6; ++q) {
        const auto &results = uni.query(q).results;
        if (results.size() != 2)
            continue;
        ++two_result_queries;
        ps.installPair({q, results[0].first}, 0.5 + 0.01 * q, q % 2 == 0,
                       t);
        ps.installPair({q, results[1].first}, 0.25, false, t);
        ps.recordClick({q, results[1].first}, t);
    }
    ASSERT_EQ(two_result_queries, 6u);
    for (u32 r = 0; r < 12; ++r)
        ps.installPair({uni.result(r).queries.front().first, r},
                       0.125 * r, r % 3 == 0, t);
    ASSERT_GE(ps.table().pairs(), 18u);
    EXPECT_EQ(harness::deviceTableDigest(ps), roundTripTableDigest(ps));
}

} // namespace
} // namespace pc
