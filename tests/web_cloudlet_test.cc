/**
 * @file
 * Unit tests for the PocketWeb content cloudlet's freshness policy
 * (Section 3.2) and the index-tier probe penalty (Section 3.3).
 */

#include <gtest/gtest.h>

#include "core/pocket_search.h"
#include "core/web_cloudlet.h"

namespace pc::core {
namespace {

pc::nvm::FlashConfig
deviceConfig()
{
    pc::nvm::FlashConfig cfg;
    cfg.capacity = 2 * kGiB;
    return cfg;
}

class WebCloudletTest : public ::testing::Test
{
  protected:
    WebCloudletTest() : device_(deviceConfig()), store_(device_)
    {
        WebCloudletConfig cfg;
        cfg.realtimeSetSize = 2;
        web_ = std::make_unique<WebContentCloudlet>(store_, cfg);
    }

    pc::nvm::FlashDevice device_;
    pc::simfs::FlashStore store_;
    std::unique_ptr<WebContentCloudlet> web_;
};

TEST_F(WebCloudletTest, StaticPageAlwaysFresh)
{
    SimTime t = 0;
    web_->installPage("www.wiki.org/page", /*dynamic=*/false, 0, t);
    SimTime serve = 0;
    // Even a month later, static content serves from flash.
    EXPECT_TRUE(web_->visit("www.wiki.org/page",
                            28ll * 24 * 3600 * kSecond, serve));
    EXPECT_GT(serve, 0);
    EXPECT_EQ(web_->stats().hitsFresh, 1u);
}

TEST_F(WebCloudletTest, DynamicPageGoesStale)
{
    SimTime t = 0;
    web_->installPage("www.cnn.com", /*dynamic=*/true, 0, t);
    SimTime serve = 0;
    // Fresh shortly after the push...
    EXPECT_TRUE(web_->visit("www.cnn.com", kSecond, serve));
    // ...stale a day later without refresh.
    EXPECT_FALSE(web_->visit("www.cnn.com", 24ll * 3600 * kSecond,
                             serve));
    EXPECT_EQ(web_->stats().missStale, 1u);
}

TEST_F(WebCloudletTest, UncachedPageMisses)
{
    SimTime serve = 0;
    EXPECT_FALSE(web_->visit("www.unknown.com", 0, serve));
    EXPECT_EQ(web_->stats().missUncached, 1u);
    EXPECT_EQ(serve, 0);
}

TEST_F(WebCloudletTest, RealtimeSetKeepsHotDynamicPagesFresh)
{
    SimTime t = 0;
    web_->installPage("www.cnn.com", true, 0, t);
    web_->installPage("www.stocks.com", true, 0, t);
    web_->installPage("www.rarelyread.com", true, 0, t);

    // The user revisits cnn and stocks a lot.
    SimTime serve = 0;
    for (int i = 0; i < 5; ++i) {
        web_->visit("www.cnn.com", kSecond * i, serve);
        web_->visit("www.stocks.com", kSecond * i, serve);
    }
    web_->visit("www.rarelyread.com", kSecond, serve);
    web_->recomputeRealtimeSet();


    // Hourly background refreshes keep the hot pages fresh all day.
    for (int hour = 1; hour <= 24; ++hour)
        web_->realtimeRefresh(SimTime(hour) * 3600 * kSecond);

    // realtimeSetSize=2 keeps only the hottest two fresh.
    const SimTime evening = 23ll * 3600 * kSecond;
    EXPECT_TRUE(web_->visit("www.cnn.com", evening, serve));
    EXPECT_TRUE(web_->visit("www.stocks.com", evening, serve));
    EXPECT_FALSE(web_->visit("www.rarelyread.com", evening, serve))
        << "cold dynamic pages are allowed to go stale";
    EXPECT_GT(web_->stats().realtimeBytes, 0u);
}

TEST_F(WebCloudletTest, RealtimeBeatsBulkRefreshBandwidth)
{
    SimTime t = 0;
    for (int i = 0; i < 50; ++i) {
        web_->installPage("www.dyn" + std::to_string(i) + ".com", true,
                          0, t);
    }
    web_->recomputeRealtimeSet();
    for (int hour = 1; hour <= 24; ++hour)
        web_->realtimeRefresh(SimTime(hour) * 3600 * kSecond);
    // A day of real-time refreshes for the hot set must cost far less
    // than ONE bulk refresh of all dynamic pages (Section 3.2's point).
    EXPECT_LT(web_->stats().realtimeBytes, web_->bulkRefreshBytes() / 5);
}

TEST_F(WebCloudletTest, ShrinkEvictsLeastRevisited)
{
    SimTime t = 0;
    web_->installPage("www.hot.com", false, 0, t);
    web_->installPage("www.cold.com", false, 0, t);
    SimTime serve = 0;
    for (int i = 0; i < 5; ++i)
        web_->visit("www.hot.com", kSecond, serve);
    const Bytes released = web_->shrinkTo(WebCloudletConfig{}.pageSize);
    EXPECT_GT(released, 0u);
    EXPECT_TRUE(web_->visit("www.hot.com", kSecond, serve));
    EXPECT_FALSE(web_->visit("www.cold.com", kSecond, serve));
    EXPECT_EQ(web_->stats().missUncached, 1u) << "cold page evicted";
}

TEST(IndexTier, PcmProbesPayAPenaltyOverDram)
{
    workload::UniverseConfig ucfg;
    ucfg.navResults = 200;
    ucfg.nonNavResults = 800;
    ucfg.navHead = 30;
    ucfg.nonNavHead = 30;
    ucfg.habitNavHead = 20;
    ucfg.habitNonNavHead = 15;
    workload::QueryUniverse uni(ucfg);
    pc::nvm::FlashDevice device(deviceConfig());
    pc::simfs::FlashStore store(device);

    PocketSearchConfig dram_cfg;
    dram_cfg.indexTier = IndexTier::DramFromNand;
    PocketSearch dram_ps(uni, store, dram_cfg);

    pc::nvm::FlashDevice device2(deviceConfig());
    pc::simfs::FlashStore store2(device2);
    PocketSearchConfig pcm_cfg;
    pcm_cfg.indexTier = IndexTier::Pcm;
    PocketSearch pcm_ps(uni, store2, pcm_cfg);

    SimTime t = 0;
    for (u32 r = 0; r < 50; ++r) {
        const workload::PairRef p{uni.result(r).queries.front().first,
                                  r};
        dram_ps.installPair(p, 0.5, false, t);
        pcm_ps.installPair(p, 0.5, false, t);
    }

    const std::string &q = uni.query(
        uni.result(0).queries.front().first).text;
    const auto dram_out = dram_ps.lookup(q);
    const auto pcm_out = pcm_ps.lookup(q);
    EXPECT_GT(pcm_out.hashLookupTime, dram_out.hashLookupTime);
}

} // namespace
} // namespace pc::core
