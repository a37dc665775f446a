/**
 * @file
 * pc::store engine tests: backend-equivalence grid against a reference
 * model, page-cache invariants, GC integrity, write batching, recovery,
 * and the ResultDatabase engine mode.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/result_db.h"
#include "nvm/flash_device.h"
#include "store/engine.h"
#include "store/page_cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pc::store {
namespace {

std::string
valueFor(u64 key, u64 version, Bytes size)
{
    std::string v = std::to_string(key) + ":" + std::to_string(version) + ":";
    while (v.size() < size)
        v.push_back(char('a' + (key + version + v.size()) % 26));
    return v.substr(0, size);
}

// ---------------------------------------------------------------------
// Reference-equivalence grid: every (cache size × batch window) cell
// must agree with an in-memory reference model under a randomized op
// sequence.
// ---------------------------------------------------------------------

class EngineVsReference
    : public ::testing::TestWithParam<std::tuple<u32, u32>>
{
};

TEST_P(EngineVsReference, RandomOpsMatchReferenceModel)
{
    const auto [cachePages, batchWindow] = GetParam();

    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);

    StoreEngineConfig cfg;
    cfg.cache.capacityPages = cachePages;
    cfg.batchWindow = batchWindow;
    cfg.slotsPerSlab = 32;
    StoreEngine eng(store, cfg);

    std::map<u64, std::string> ref;
    Rng rng(cachePages * 10 + batchWindow + 5);
    SimTime t = 0;
    SimTime prev = 0;
    u64 version = 0;

    constexpr u64 kKeys = 120;
    for (int step = 0; step < 1500; ++step) {
        const u64 key = rng.below(kKeys);
        if (rng.below(100) < 60) { // put/update
            const Bytes size = 20 + rng.below(2800);
            const std::string v = valueFor(key, ++version, size);
            ASSERT_TRUE(eng.put(key, v, t));
            ref[key] = v;
        } else { // get
            std::string out;
            const bool found = eng.get(key, out, t);
            ASSERT_EQ(found, ref.count(key) > 0) << "key " << key;
            if (found) {
                ASSERT_EQ(out, ref[key]);
            }
        }
        ASSERT_GE(t, prev); // simulated time never runs backwards
        prev = t;
        ASSERT_EQ(eng.items(), ref.size());
    }

    // Full sweep at the end: the engine holds exactly the reference's
    // keys over the whole key range, each value exact.
    Bytes logical = 0;
    for (u64 key = 0; key < kKeys; ++key) {
        const auto it = ref.find(key);
        ASSERT_EQ(eng.contains(key), it != ref.end()) << "key " << key;
        if (it == ref.end())
            continue;
        std::string out;
        ASSERT_TRUE(eng.get(key, out, t));
        ASSERT_EQ(out, it->second);
        logical += it->second.size();
    }
    ASSERT_EQ(eng.items(), ref.size());
    ASSERT_EQ(eng.logicalBytes(), logical);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineVsReference,
    ::testing::Combine(::testing::Values(0u, 8u, 256u),
                       ::testing::Values(0u, 8u)));

// ---------------------------------------------------------------------
// Page cache
// ---------------------------------------------------------------------

TEST(PageCacheTest, CapacityIsRespectedAndLruEvicts)
{
    PageCacheConfig cfg;
    cfg.capacityPages = 3;
    PageCache cache(cfg);

    cache.insert(1, 0, "a");
    cache.insert(1, 1, "b");
    cache.insert(1, 2, "c");
    ASSERT_EQ(cache.pagesCached(), 3u);

    // Touch page 0 so page 1 becomes the LRU victim.
    ASSERT_NE(cache.lookup(1, 0), nullptr);
    cache.insert(1, 3, "d");
    ASSERT_EQ(cache.pagesCached(), 3u);
    ASSERT_EQ(cache.stats().evictions, 1u);
    ASSERT_TRUE(cache.contains(1, 0));
    ASSERT_FALSE(cache.contains(1, 1)); // evicted
    ASSERT_TRUE(cache.contains(1, 2));
    ASSERT_TRUE(cache.contains(1, 3));
}

TEST(PageCacheTest, HitMissAndInvalidationCounting)
{
    PageCache cache(PageCacheConfig{4 * kKiB, 4});
    ASSERT_EQ(cache.lookup(7, 0), nullptr);
    ASSERT_EQ(cache.stats().misses, 1u);
    cache.insert(7, 0, "x");
    const std::string *p = cache.lookup(7, 0);
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(*p, "x");
    ASSERT_EQ(cache.stats().hits, 1u);

    cache.insert(7, 1, "y");
    cache.insert(8, 0, "z");
    cache.invalidate(7, 0);
    ASSERT_FALSE(cache.contains(7, 0));
    cache.invalidateFile(7);
    ASSERT_FALSE(cache.contains(7, 1));
    ASSERT_TRUE(cache.contains(8, 0)); // other file untouched
    ASSERT_EQ(cache.stats().invalidations, 2u);
}

TEST(PageCacheTest, ZeroCapacityDisablesCaching)
{
    PageCache cache(PageCacheConfig{4 * kKiB, 0});
    cache.insert(1, 0, "a");
    ASSERT_EQ(cache.pagesCached(), 0u);
    ASSERT_EQ(cache.lookup(1, 0), nullptr);
}

TEST(StoreEngineTest, CachedRereadIsCheaperThanFirstRead)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    StoreEngineConfig cfg;
    cfg.cache.capacityPages = 64;
    StoreEngine eng(store, cfg);

    SimTime t = 0;
    ASSERT_TRUE(eng.put(42, valueFor(42, 1, 400), t));
    eng.flush(t);

    std::string out;
    SimTime cold = 0;
    ASSERT_TRUE(eng.get(42, out, cold));
    SimTime warm = 0;
    ASSERT_TRUE(eng.get(42, out, warm));
    ASSERT_LT(warm, cold);
    ASSERT_GT(eng.cacheStats().hits, 0u);
}

// ---------------------------------------------------------------------
// Write batching
// ---------------------------------------------------------------------

TEST(WriteBatchTest, ContiguousOpsCoalesceIntoOneRun)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    const auto id = store.create("wb");

    WriteBatch batch(store, 16);
    SimTime t = 0;
    for (int i = 0; i < 8; ++i)
        batch.enqueue(id, Bytes(i) * 10, std::string(10, char('a' + i)), t);
    batch.flush(t);

    ASSERT_EQ(batch.stats().ops, 8u);
    ASSERT_EQ(batch.stats().runs, 1u); // one contiguous program
    ASSERT_GT(batch.stats().coalescing(), 7.0);

    std::string out;
    store.read(id, 0, 80, out, t);
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(out[std::size_t(i) * 10], char('a' + i));
}

TEST(WriteBatchTest, NonContiguousOpsKeepTheirOrder)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    const auto id = store.create("wb");

    WriteBatch batch(store, 16);
    SimTime t = 0;
    batch.enqueue(id, 100, "BBBB", t);
    batch.enqueue(id, 0, "AAAA", t);  // backwards jump: no merge
    batch.enqueue(id, 4, "CCCC", t);  // contiguous with previous
    batch.flush(t);
    ASSERT_EQ(batch.stats().runs, 2u);

    std::string out;
    store.read(id, 0, 8, out, t);
    ASSERT_EQ(out, "AAAACCCC");
}

// ---------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------

TEST(StoreEngineTest, GcReclaimsSlabsAndPreservesEveryLiveItem)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);

    StoreEngineConfig cfg;
    cfg.sizeClasses = {256};
    cfg.slotsPerSlab = 16;
    StoreEngine eng(store, cfg);

    SimTime t = 0;
    std::map<u64, std::string> ref;
    for (u64 k = 0; k < 96; ++k) {
        ref[k] = valueFor(k, 1, 180);
        ASSERT_TRUE(eng.put(k, ref[k], t));
    }
    eng.flush(t);
    // Update three of every four keys: their old slots die, so each of
    // the six filled slabs passes half dead and GC relocates its
    // untouched quarter.
    for (u64 k = 0; k < 96; ++k) {
        if (k % 4 != 0) {
            ref[k] = valueFor(k, 2, 180);
            ASSERT_TRUE(eng.put(k, ref[k], t));
        }
    }
    eng.flush(t);
    ASSERT_GE(eng.gcStats().collections, 6u);
    ASSERT_EQ(eng.gcStats().slabsReclaimed, eng.gcStats().collections);
    ASSERT_GE(eng.gcStats().relocated, 6u * 4u);
    // 168 slots were written; without GC they would fill 11 slabs.
    ASSERT_LT(eng.fileNames().size(), 11u);

    // Every key intact after relocation.
    for (const auto &[key, val] : ref) {
        std::string out;
        ASSERT_TRUE(eng.get(key, out, t));
        ASSERT_EQ(out, val);
    }
    ASSERT_EQ(eng.items(), ref.size());
}

TEST(StoreEngineTest, AutoGcTriggersUnderUpdateChurn)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);

    StoreEngineConfig cfg;
    cfg.sizeClasses = {256};
    cfg.slotsPerSlab = 16;
    StoreEngine eng(store, cfg);

    SimTime t = 0;
    Rng rng(11);
    for (int step = 0; step < 2000; ++step) {
        const u64 k = rng.below(64);
        ASSERT_TRUE(eng.put(k, valueFor(k, u64(step), 150), t));
    }
    ASSERT_GT(eng.gcStats().collections, 0u);
    // Churn over 64 keys can never legitimately need more than a few
    // slabs' worth of space once GC keeps up.
    ASSERT_LT(eng.physicalBytes(), 64 * Bytes(10) * 256);
}

// ---------------------------------------------------------------------
// Recovery / attach
// ---------------------------------------------------------------------

TEST(StoreEngineTest, ReattachRecoversIndexFromSlabs)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);

    StoreEngineConfig cfg;
    cfg.slotsPerSlab = 16;
    std::map<u64, std::string> ref;
    {
        StoreEngine eng(store, cfg);
        SimTime t = 0;
        for (u64 k = 0; k < 40; ++k) {
            ref[k] = valueFor(k, 1, 100 + k * 20);
            ASSERT_TRUE(eng.put(k, ref[k], t));
        }
        // Updates, some twice, so recovery must pick winners by seq.
        for (u64 k = 0; k < 40; k += 3) {
            ref[k] = valueFor(k, 2, 90);
            ASSERT_TRUE(eng.put(k, ref[k], t));
        }
        for (u64 k = 0; k < 40; k += 5) {
            ref[k] = valueFor(k, 3, 60 + k);
            ASSERT_TRUE(eng.put(k, ref[k], t));
        }
        eng.flush(t);
    } // engine gone; flash survives

    StoreEngine eng2(store, cfg);
    ASSERT_GT(eng2.recoveryTime(), 0);
    ASSERT_EQ(eng2.items(), ref.size());
    SimTime t = 0;
    for (const auto &[key, val] : ref) {
        std::string out;
        ASSERT_TRUE(eng2.get(key, out, t));
        ASSERT_EQ(out, val);
    }
    // New writes must not collide with recovered slab files.
    ASSERT_TRUE(eng2.put(999, valueFor(999, 1, 50), t));
    std::string out;
    ASSERT_TRUE(eng2.get(999, out, t));
}

TEST(StoreEngineTest, RejectsOversizedValues)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    StoreEngine eng(store);

    SimTime t = 0;
    const Bytes cap = eng.config().sizeClasses.back() -
                      StoreEngine::kHeaderSize;
    ASSERT_FALSE(eng.put(1, std::string(cap + 1, 'x'), t));
    ASSERT_TRUE(eng.put(1, std::string(cap, 'x'), t));
}

TEST(StoreEngineTest, CachedGetCostsOneProbePlusHitAtAnySize)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    StoreEngine eng(store);

    SimTime t = 0;
    std::string out;
    const auto cachedGet = [&](u64 key) {
        SimTime warm = 0;
        EXPECT_TRUE(eng.get(key, out, warm)); // pulls the pages in
        SimTime one = 0;
        EXPECT_TRUE(eng.get(key, out, one));
        return one;
    };
    ASSERT_TRUE(eng.put(0, "only", t));
    ASSERT_EQ(cachedGet(0),
              StoreEngine::kProbeCost + StoreEngine::kHitOverhead);
    // Hash probes are size-independent.
    for (u64 k = 1; k < 2000; ++k)
        ASSERT_TRUE(eng.put(k, "more", t));
    ASSERT_EQ(cachedGet(1999),
              StoreEngine::kProbeCost + StoreEngine::kHitOverhead);
}

// ---------------------------------------------------------------------
// ResultDatabase engine mode
// ---------------------------------------------------------------------

TEST(ResultDbEngineMode, EngineAndFlatModesAgree)
{
    using pc::core::DbConfig;
    using pc::core::ResultDatabase;
    using pc::core::RecordView;

    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice devFlat(fc), devEng(fc);
    pc::simfs::FlashStore flatStore(devFlat), engStore(devEng);

    DbConfig flatCfg;
    DbConfig engCfg;
    engCfg.useStoreEngine = true;
    ResultDatabase flat(flatStore, flatCfg);
    ResultDatabase eng(engStore, engCfg);
    ASSERT_EQ(flat.engine(), nullptr);
    ASSERT_NE(eng.engine(), nullptr);

    SimTime tf = 0, te = 0;
    std::vector<pc::workload::ResultInfo> infos;
    for (int i = 0; i < 50; ++i) {
        pc::workload::ResultInfo r;
        r.navigational = false;
        r.url = "http://example.org/page/" + std::to_string(i);
        r.title = "Title " + std::to_string(i);
        r.description = "Description of page " + std::to_string(i);
        infos.push_back(r);
        ASSERT_EQ(flat.addRecord(r, tf), eng.addRecord(r, te));
    }
    ASSERT_EQ(flat.records(), eng.records());

    // Updates replace in both modes.
    for (int i = 0; i < 50; i += 7) {
        auto r = infos[std::size_t(i)];
        r.title = "Updated " + std::to_string(i);
        infos[std::size_t(i)] = r;
        ASSERT_TRUE(flat.updateRecord(r, tf));
        ASSERT_TRUE(eng.updateRecord(r, te));
    }
    ASSERT_EQ(flat.records(), eng.records());

    for (const auto &r : infos) {
        const u64 key = pc::urlHash(r.url);
        RecordView a, b;
        SimTime ta = 0, tb = 0;
        ASSERT_TRUE(flat.fetch(key, a, ta));
        ASSERT_TRUE(eng.fetch(key, b, tb));
        ASSERT_EQ(a.title, b.title);
        ASSERT_EQ(a.description, b.description);
        ASSERT_EQ(a.url, b.url);
        ASSERT_EQ(a.title, r.title);
    }
}

} // namespace
} // namespace pc::store
