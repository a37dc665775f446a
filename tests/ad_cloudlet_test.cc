/**
 * @file
 * Unit tests for the ad cloudlet and the Section 7 serving/eviction
 * coordinator.
 */

#include <gtest/gtest.h>

#include "core/ad_cloudlet.h"
#include "core/coordinator.h"
#include "util/strings.h"

namespace pc::core {
namespace {

pc::nvm::FlashConfig
deviceConfig()
{
    pc::nvm::FlashConfig cfg;
    cfg.capacity = 256 * kMiB;
    return cfg;
}

AdRecord
makeAd(int i)
{
    AdRecord ad;
    ad.advertiser = "advertiser" + std::to_string(i);
    ad.banner = "BUY NOW #" + std::to_string(i);
    ad.targetUrl = "www.shop" + std::to_string(i) + ".com";
    return ad;
}

class AdCloudletTest : public ::testing::Test
{
  protected:
    AdCloudletTest() : device_(deviceConfig()), store_(device_),
                       ads_(store_)
    {
    }

    pc::nvm::FlashDevice device_;
    pc::simfs::FlashStore store_;
    AdCloudlet ads_;
};

TEST_F(AdCloudletTest, InstallServeRoundTrip)
{
    SimTime t = 0;
    ads_.installAd("shoes", makeAd(1), t);
    EXPECT_GT(t, 0) << "banner write costs flash time";
    EXPECT_TRUE(ads_.containsQuery("shoes"));

    AdRecord ad;
    SimTime serve = 0;
    EXPECT_TRUE(ads_.serve("shoes", ad, serve));
    EXPECT_EQ(ad.advertiser, "advertiser1");
    EXPECT_GT(serve, 0);
    EXPECT_EQ(ads_.hits(), 1u);
    EXPECT_EQ(ads_.lookups(), 1u);
}

TEST_F(AdCloudletTest, MissLeavesTimeUntouched)
{
    AdRecord ad;
    SimTime t = 0;
    EXPECT_FALSE(ads_.serve("nothing", ad, t));
    EXPECT_EQ(t, 0);
    EXPECT_EQ(ads_.lookups(), 1u);
    EXPECT_EQ(ads_.hits(), 0u);
}

TEST_F(AdCloudletTest, ReinstallReplacesWithoutGrowth)
{
    SimTime t = 0;
    ads_.installAd("shoes", makeAd(1), t);
    ads_.installAd("shoes", makeAd(2), t);
    EXPECT_EQ(ads_.entries(), 1u);
    AdRecord ad;
    ads_.serve("shoes", ad, t);
    EXPECT_EQ(ad.advertiser, "advertiser2");
}

TEST_F(AdCloudletTest, FootprintAccounting)
{
    SimTime t = 0;
    for (int i = 0; i < 10; ++i)
        ads_.installAd(strformat("q%d", i), makeAd(i), t);
    EXPECT_EQ(ads_.dataBytes(), 10u * 5 * kKiB);
    EXPECT_EQ(ads_.indexBytes(), 10u * 24u);
    EXPECT_GE(store_.stats().physicalBytes, ads_.dataBytes());
}

TEST_F(AdCloudletTest, EvictQuery)
{
    SimTime t = 0;
    ads_.installAd("shoes", makeAd(1), t);
    EXPECT_TRUE(ads_.evictQuery("shoes"));
    EXPECT_FALSE(ads_.evictQuery("shoes"));
    EXPECT_FALSE(ads_.containsQuery("shoes"));
}

TEST_F(AdCloudletTest, ShrinkToBudget)
{
    SimTime t = 0;
    for (int i = 0; i < 10; ++i)
        ads_.installAd(strformat("q%d", i), makeAd(i), t);
    const Bytes released = ads_.shrinkTo(4 * 5 * kKiB);
    EXPECT_EQ(released, 6u * 5 * kKiB);
    EXPECT_EQ(ads_.entries(), 4u);
    EXPECT_EQ(ads_.shrinkTo(kGiB), 0u);
}

class CoordinatorTest : public ::testing::Test
{
  protected:
    CoordinatorTest() : device_(deviceConfig()), store_(device_)
    {
        workload::UniverseConfig ucfg;
        ucfg.navResults = 200;
        ucfg.nonNavResults = 800;
        ucfg.navHead = 30;
        ucfg.nonNavHead = 30;
        ucfg.habitNavHead = 20;
        ucfg.habitNonNavHead = 15;
        uni_ = std::make_unique<workload::QueryUniverse>(ucfg);
        ps_ = std::make_unique<PocketSearch>(*uni_, store_);
        ads_ = std::make_unique<AdCloudlet>(store_);
        coord_ = std::make_unique<CloudletCoordinator>(*ps_, *ads_);
    }

    /** Cache a pair in search; optionally give its query an ad. */
    std::string
    prime(u32 result, bool with_ad)
    {
        const workload::PairRef p{
            uni_->result(result).queries.front().first, result};
        SimTime t = 0;
        ps_->installPair(p, 0.9, false, t);
        const std::string &q = uni_->query(p.query).text;
        if (with_ad)
            ads_->installAd(q, makeAd(int(result)), t);
        return q;
    }

    pc::nvm::FlashDevice device_;
    pc::simfs::FlashStore store_;
    std::unique_ptr<workload::QueryUniverse> uni_;
    std::unique_ptr<PocketSearch> ps_;
    std::unique_ptr<AdCloudlet> ads_;
    std::unique_ptr<CloudletCoordinator> coord_;
};

TEST_F(CoordinatorTest, SearchHitServesAdToo)
{
    const std::string q = prime(0, true);
    const auto page = coord_->serveQuery(q);
    EXPECT_TRUE(page.search.hit);
    EXPECT_TRUE(page.adShown);
    EXPECT_EQ(page.ad.advertiser, "advertiser0");
    EXPECT_GT(page.latency, page.search.hashLookupTime +
                                page.search.fetchTime)
        << "ad fetch adds time on top of search serving";
    EXPECT_EQ(coord_->stats().searchHits, 1u);
    EXPECT_EQ(coord_->stats().adHits, 1u);
}

TEST_F(CoordinatorTest, SearchHitWithoutAdStillServes)
{
    const std::string q = prime(1, false);
    const auto page = coord_->serveQuery(q);
    EXPECT_TRUE(page.search.hit);
    EXPECT_FALSE(page.adShown);
}

TEST_F(CoordinatorTest, SearchMissSkipsAdProbe)
{
    // Even though the ad cache HAS this query, the Section 7 rule says
    // don't touch it after a search miss.
    SimTime t = 0;
    ads_->installAd("uncached query", makeAd(7), t);
    const auto page = coord_->serveQuery("uncached query");
    EXPECT_FALSE(page.search.hit);
    EXPECT_FALSE(page.adShown);
    EXPECT_EQ(coord_->stats().adProbesSkipped, 1u);
    EXPECT_EQ(ads_->lookups(), 0u) << "ad cache must not be probed";
}

TEST_F(CoordinatorTest, CoordinatedEviction)
{
    const std::string q0 = prime(0, true);
    const std::string q1 = prime(1, true);
    const std::size_t evicted = coord_->evictQueries({q0});
    EXPECT_EQ(evicted, 1u);
    EXPECT_TRUE(ps_->table().lookup(q0).empty());
    EXPECT_FALSE(ads_->containsQuery(q0));
    EXPECT_FALSE(ps_->table().lookup(q1).empty())
        << "unrelated entries survive";
    EXPECT_TRUE(ads_->containsQuery(q1));
}

} // namespace
} // namespace pc::core
