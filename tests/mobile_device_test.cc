/**
 * @file
 * Unit tests for the end-to-end device timing/energy model (Figures
 * 15/16, Tables 4/5).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/delta.h"
#include "core/table_codec.h"
#include "device/mobile_device.h"
#include "logs/triplets.h"

namespace pc::device {
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

/**
 * Community contents over results [0, results): each result's first
 * query, result r clicked (results + 20 - r) times, all of it cached.
 */
core::CacheContents
communityContents(const workload::QueryUniverse &uni, u32 results)
{
    workload::SearchLog log(uni);
    for (u32 r = 0; r < results; ++r) {
        const u32 q = uni.result(r).queries.front().first;
        for (int i = 0; i < int(results + 20 - r); ++i) {
            log.add({1, SimTime(i), {q, r},
                     workload::DeviceType::Smartphone});
        }
    }
    const auto table = logs::TripletTable::fromLog(log);
    core::CacheContentBuilder builder(uni);
    core::ContentPolicy policy;
    policy.kind = core::ThresholdKind::VolumeShare;
    policy.volumeShare = 1.0;
    return builder.build(table, policy);
}

class MobileDeviceTest : public ::testing::Test
{
  protected:
    MobileDeviceTest() : uni_(tinyUniverse()), device_(uni_)
    {
        // Warm the cache with a handful of popular pairs.
        device_.installCommunityCache(communityContents(uni_, 20));
    }

    workload::PairRef
    cachedPair(u32 r = 0)
    {
        return {uni_.result(r).queries.front().first, r};
    }

    workload::PairRef
    uncachedPair()
    {
        return {uni_.result(500).queries.front().first, 500};
    }

    workload::QueryUniverse uni_;
    MobileDevice device_;
};

TEST_F(MobileDeviceTest, CacheHitNear378Milliseconds)
{
    const auto out = device_.serveQuery(cachedPair(), ServePath::PocketSearch,
                                        /*record_click=*/false);
    EXPECT_TRUE(out.cacheHit);
    // Table 4: 378 ms total, render-dominated.
    EXPECT_NEAR(toMillis(out.latency), 378.0, 40.0);
    EXPECT_GT(out.renderTime, 9 * out.latency / 10 - fromMillis(50));
    EXPECT_EQ(out.hashLookupTime, 10 * kMicrosecond);
    EXPECT_GT(out.fetchTime, 0);
    EXPECT_EQ(out.radioTime, 0);
}

TEST_F(MobileDeviceTest, MissFallsBackTo3G)
{
    const auto out = device_.serveQuery(uncachedPair(),
                                        ServePath::PocketSearch, false);
    EXPECT_FALSE(out.cacheHit);
    EXPECT_GT(out.radioTime, kSecond);
    EXPECT_GT(out.latency, 3 * kSecond);
}

TEST_F(MobileDeviceTest, RadioPathsOrderedLikeFigure15a)
{
    // Fresh devices per path so every link starts cold.
    auto latency_of = [&](ServePath path) {
        MobileDevice d(uni_);
        return d.serveQuery(uncachedPair(), path, false).latency;
    };
    const SimTime t3g = latency_of(ServePath::ThreeG);
    const SimTime tedge = latency_of(ServePath::Edge);
    const SimTime twifi = latency_of(ServePath::Wifi);
    MobileDevice d(uni_);
    const SimTime tps =
        device_.serveQuery(cachedPair(1), ServePath::PocketSearch, false)
            .latency;
    EXPECT_GT(tedge, t3g);
    EXPECT_GT(t3g, twifi);
    EXPECT_GT(twifi, tps);
    // Paper speedups: 16x vs 3G, 25x vs EDGE, 7x vs WiFi — require the
    // right ballpark, not exactness.
    EXPECT_NEAR(double(t3g) / double(tps), 16.0, 5.0);
    EXPECT_NEAR(double(tedge) / double(tps), 25.0, 8.0);
    EXPECT_NEAR(double(twifi) / double(tps), 7.0, 3.0);
}

TEST_F(MobileDeviceTest, EnergyOrderedLikeFigure15b)
{
    auto energy_of = [&](ServePath path) {
        MobileDevice d(uni_);
        return d.serveQuery(uncachedPair(), path, false).energy;
    };
    const MicroJoules e3g = energy_of(ServePath::ThreeG);
    const MicroJoules eedge = energy_of(ServePath::Edge);
    const MicroJoules ewifi = energy_of(ServePath::Wifi);
    const MicroJoules eps =
        device_.serveQuery(cachedPair(2), ServePath::PocketSearch, false)
            .energy;
    EXPECT_GT(eedge, e3g);
    EXPECT_GT(e3g, ewifi);
    EXPECT_GT(ewifi, eps);
    EXPECT_NEAR(e3g / eps, 23.0, 10.0);
    EXPECT_NEAR(eedge / eps, 41.0, 16.0);
    EXPECT_NEAR(ewifi / eps, 11.0, 5.0);
}

TEST_F(MobileDeviceTest, ConsecutiveQueriesSkipWakeup)
{
    // Figure 16: 10 back-to-back 3G queries — only the first pays the
    // wake-up ramp.
    MobileDevice d(uni_);
    const auto first = d.serveQuery(uncachedPair(), ServePath::ThreeG,
                                    false);
    const auto second = d.serveQuery(uncachedPair(), ServePath::ThreeG,
                                     false);
    EXPECT_LT(second.latency, first.latency);
    bool first_has_wakeup = false, second_has_wakeup = false;
    for (const auto &s : first.trace)
        first_has_wakeup |= (s.label == "wakeup");
    for (const auto &s : second.trace)
        second_has_wakeup |= (s.label == "wakeup");
    EXPECT_TRUE(first_has_wakeup);
    EXPECT_FALSE(second_has_wakeup);
}

TEST_F(MobileDeviceTest, TracePowerLevelsMatchFigure16)
{
    // Local serving stays near base power (~900 mW in the paper's
    // figure, base+render here); radio serving peaks several hundred
    // mW higher.
    const auto hit = device_.serveQuery(cachedPair(3),
                                        ServePath::PocketSearch, false);
    MobileDevice d(uni_);
    const auto miss = d.serveQuery(uncachedPair(), ServePath::ThreeG,
                                   false);
    MilliWatts hit_peak = 0, miss_peak = 0;
    for (const auto &s : hit.trace)
        hit_peak = std::max(hit_peak, s.power);
    for (const auto &s : miss.trace)
        miss_peak = std::max(miss_peak, s.power);
    EXPECT_GT(miss_peak, hit_peak + 200.0);
}

TEST_F(MobileDeviceTest, NavigationLatencyAddsPageLoad)
{
    const auto out = device_.serveQuery(cachedPair(4),
                                        ServePath::PocketSearch, false);
    const SimTime light =
        device_.navigationLatency(out, PageWeight::Lightweight);
    const SimTime heavy =
        device_.navigationLatency(out, PageWeight::Heavyweight);
    EXPECT_EQ(light, out.latency + 15 * kSecond);
    EXPECT_EQ(heavy, out.latency + 30 * kSecond);
}

TEST_F(MobileDeviceTest, ClockAdvancesWithQueries)
{
    const SimTime t0 = device_.now();
    const auto out = device_.serveQuery(cachedPair(5),
                                        ServePath::PocketSearch, false);
    EXPECT_EQ(device_.now(), t0 + out.latency);
    device_.advanceTime(kSecond);
    EXPECT_EQ(device_.now(), t0 + out.latency + kSecond);
}

TEST_F(MobileDeviceTest, RecordClickLearnsThroughDevice)
{
    const auto p = uncachedPair();
    device_.serveQuery(p, ServePath::PocketSearch, /*record_click=*/true);
    EXPECT_TRUE(device_.pocketSearch().containsPair(p))
        << "clicked miss must be cached for next time";
    const auto again = device_.serveQuery(p, ServePath::PocketSearch,
                                          false);
    EXPECT_TRUE(again.cacheHit);
}

// ---------------------------------------------------------------------
// Cloning an installed image device (the fleet's one construction path).
// ---------------------------------------------------------------------

/** Every byte and counter of a device's cache, store and flash. */
struct DeviceBytes
{
    std::string table;   ///< encodeTable of the hash table.
    std::string suggest; ///< Full auto-suggest dump, in box order.
    std::vector<std::string> fileNames;
    std::vector<std::string> fileBytes;
    std::vector<std::vector<u64>> fileBlocks;
    u64 pagesRead = 0;
    u64 pagesProgrammed = 0;
    u64 blocksErased = 0;
    u64 readOps = 0;
    u64 writeOps = 0;
    SimTime busyTime = 0;
    MicroJoules energy = 0;
    std::vector<u64> eraseCounts; ///< Per erase block.

    bool operator==(const DeviceBytes &) const = default;
};

/** Snapshot a device without touching it (every read is untimed). */
DeviceBytes
bytesOf(MobileDevice &d)
{
    DeviceBytes b;
    b.table = core::encodeTable(d.pocketSearch().table());
    for (const auto &s : d.pocketSearch().suggestIndex().suggest("", ~0u)) {
        char score[32];
        std::snprintf(score, sizeof(score), "%.17g", s.score);
        b.suggest += s.query + '\t' + score + '\n';
    }
    const auto &store = d.store();
    for (const auto &name : store.listFiles()) {
        const auto id = store.lookup(name);
        b.fileNames.push_back(name);
        b.fileBytes.emplace_back(store.contents(id));
        b.fileBlocks.push_back(store.blocks(id));
    }
    const auto &flash = d.flash();
    b.pagesRead = flash.pagesRead();
    b.pagesProgrammed = flash.pagesProgrammed();
    b.blocksErased = flash.blocksErased();
    b.readOps = flash.stats().readOps;
    b.writeOps = flash.stats().writeOps;
    b.busyTime = flash.stats().busyTime;
    b.energy = flash.stats().energy;
    const Bytes block =
        flash.config().pageSize * flash.config().pagesPerBlock;
    for (u64 i = 0; i < flash.capacity() / block; ++i)
        b.eraseCounts.push_back(flash.blockEraseCount(i));
    return b;
}

/** Everything a scripted session observed, in order. */
struct SessionLog
{
    std::vector<QueryOutcome> outcomes;
    bool evicted = false;
    bool reranked = false;
    MobileDevice::CommunitySyncResult sync;
    SimTime end = 0;
};

/**
 * Serves (hits with clicks, misses that personalization learns), an
 * evict and a rerank, a community delta over 3G, then serves on the
 * updated cache.
 */
SessionLog
runSession(MobileDevice &d, const workload::QueryUniverse &uni,
           const core::CommunityDelta &delta)
{
    SessionLog log;
    const auto pairOf = [&](u32 r) {
        return workload::PairRef{uni.result(r).queries.front().first, r};
    };
    for (u32 r = 0; r < 10; ++r) {
        log.outcomes.push_back(
            d.serveQuery(pairOf(r), ServePath::PocketSearch, true));
        log.outcomes.push_back(
            d.serveQuery(pairOf(500 + r), ServePath::PocketSearch, true));
        d.advanceTime(60 * kSecond);
    }
    log.evicted = d.pocketSearch().evictPair(pairOf(200));
    log.reranked = d.pocketSearch().setPairScore(pairOf(201), 7.5);
    log.sync = d.syncCommunityUpdate(delta);
    for (u32 r = 600; r < 610; ++r)
        log.outcomes.push_back(
            d.serveQuery(pairOf(r), ServePath::PocketSearch, true));
    log.end = d.now();
    return log;
}

TEST(DeviceClone, CloneEqualsFreshInstallInStateAndBehaviour)
{
    const workload::QueryUniverse uni(tinyUniverse());
    const auto contents = communityContents(uni, 300);

    // Next model: drop the first pairs, rerank some, add new results.
    core::CacheContents next = contents;
    next.pairs.erase(next.pairs.begin(), next.pairs.begin() + 5);
    for (std::size_t i = 0; i < 10; ++i)
        next.pairs[i].score *= 0.5;
    for (u32 r = 600; r < 620; ++r)
        next.pairs.push_back({{uni.result(r).queries.front().first, r},
                              0.25, 1});
    const auto delta = core::diffContents(contents, next, 1, 2);
    ASSERT_FALSE(delta.adds.empty());
    ASSERT_FALSE(delta.evicts.empty());
    ASSERT_FALSE(delta.reranks.empty());

    MobileDevice image(uni);
    image.installCommunityCache(contents);
    MobileDevice fresh(uni);
    fresh.installCommunityCache(contents);
    MobileDevice clone(image);

    // Same state: table, suggest, every file and block, flash wear.
    const DeviceBytes imageBytes = bytesOf(image);
    ASSERT_GT(imageBytes.pagesProgrammed, 0u);
    EXPECT_EQ(bytesOf(clone), bytesOf(fresh));
    EXPECT_EQ(bytesOf(clone), imageBytes);

    // Same behaviour through serves, clicks, evict/rerank and a delta.
    const SessionLog a = runSession(clone, uni, delta);
    const SessionLog b = runSession(fresh, uni, delta);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i)
        EXPECT_EQ(a.outcomes[i], b.outcomes[i]) << "query " << i;
    EXPECT_TRUE(a.evicted);
    EXPECT_TRUE(a.reranked);
    EXPECT_EQ(a.evicted, b.evicted);
    EXPECT_EQ(a.reranked, b.reranked);
    EXPECT_TRUE(a.sync.ok) << int(a.sync.applyError);
    EXPECT_EQ(a.sync.ok, b.sync.ok);
    EXPECT_EQ(a.sync.toVersion, b.sync.toVersion);
    EXPECT_EQ(a.sync.time, b.sync.time);
    EXPECT_EQ(a.sync.apply.added, b.sync.apply.added);
    EXPECT_EQ(a.sync.apply.evicted, b.sync.apply.evicted);
    EXPECT_EQ(a.sync.apply.reranked, b.sync.apply.reranked);
    EXPECT_EQ(a.end, b.end);
    const DeviceBytes cloneAfter = bytesOf(clone);
    EXPECT_EQ(cloneAfter, bytesOf(fresh));

    // Independence: the session changed the clone, never the image.
    EXPECT_NE(cloneAfter, imageBytes);
    EXPECT_EQ(bytesOf(image), imageBytes);
    EXPECT_EQ(image.now(), 0);
    EXPECT_EQ(image.communityVersion(), 0u);
}

TEST(DeviceClone, StoreCloneOwnsItsFlash)
{
    // A clone's writes land on its own device and file copies: the
    // image's bytes, blocks and counters stay put.
    nvm::FlashDevice flash;
    simfs::FlashStore image(flash);
    SimTime t = 0;
    const auto id = image.create("a");
    image.append(id, "hello", t);
    const u64 programmed = flash.pagesProgrammed();

    nvm::FlashDevice cloneFlash(flash);
    simfs::FlashStore clone(image, cloneFlash);
    clone.append(id, " world", t);
    clone.create("b");
    EXPECT_EQ(clone.contents(id), "hello world");
    EXPECT_EQ(image.contents(id), "hello");
    EXPECT_EQ(image.lookup("b"), simfs::kNoFile);
    EXPECT_EQ(flash.pagesProgrammed(), programmed);
    EXPECT_GT(cloneFlash.pagesProgrammed(), programmed);
    EXPECT_EQ(&clone.device(), &cloneFlash);
}

TEST(DeviceCloneDeath, RefusesImageWithRegistry)
{
    const workload::QueryUniverse uni(tinyUniverse());
    MobileDevice image(uni);
    obs::MetricRegistry reg;
    image.attachMetrics(&reg);
    EXPECT_DEATH(MobileDevice clone(image), "metrics registry");
}

TEST(DeviceCloneDeath, RefusesImageWithTracer)
{
    const workload::QueryUniverse uni(tinyUniverse());
    MobileDevice image(uni);
    obs::Tracer tracer;
    image.attachTracer(&tracer);
    EXPECT_DEATH(MobileDevice clone(image), "tracer");
}

TEST(DeviceCloneDeath, RefusesImageWithFlightRecorder)
{
    const workload::QueryUniverse uni(tinyUniverse());
    MobileDevice image(uni);
    obs::FlightRecorder recorder(0);
    image.attachFlightRecorder(&recorder);
    EXPECT_DEATH(MobileDevice clone(image), "flight recorder");
}

TEST(DeviceCloneDeath, RefusesImageWithHealthAccountant)
{
    const workload::QueryUniverse uni(tinyUniverse());
    MobileDevice image(uni);
    obs::MetricRegistry reg;
    obs::health::HealthAccountant acct(reg);
    image.attachHealth(&acct);
    EXPECT_DEATH(MobileDevice clone(image), "health accountant");
}

TEST(DeviceCloneDeath, RefusesImageWithFaultPlan)
{
    const workload::QueryUniverse uni(tinyUniverse());
    MobileDevice image(uni);
    fault::FaultPlan plan;
    image.attachFaults(&plan);
    EXPECT_DEATH(MobileDevice clone(image), "fault plan");
}

TEST(DeviceCloneDeath, RefusesImageWithStoreEngine)
{
    const workload::QueryUniverse uni(tinyUniverse());
    PocketSearchConfig psCfg;
    psCfg.db.useStoreEngine = true;
    MobileDevice image(uni, {}, psCfg);
    EXPECT_DEATH(MobileDevice clone(image), "slab engine");
}

TEST(DeviceClone, DetachedObserversLeaveImageCloneable)
{
    const workload::QueryUniverse uni(tinyUniverse());
    MobileDevice image(uni);
    image.installCommunityCache(communityContents(uni, 20));
    obs::MetricRegistry reg;
    fault::FaultPlan plan;
    image.attachMetrics(&reg);
    image.attachFaults(&plan);
    image.attachMetrics(nullptr);
    image.attachFaults(nullptr);
    MobileDevice clone(image);
    EXPECT_EQ(clone.pocketSearch().pairs(), image.pocketSearch().pairs());
}

} // namespace
} // namespace pc::device
