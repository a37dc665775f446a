/**
 * @file
 * Unit tests for the generic tile cloudlet and the search-cloudlet
 * adapter (Section 7's multi-cloudlet accounting).
 */

#include <gtest/gtest.h>

#include "core/tile_cloudlet.h"
#include "core/pocket_search.h"

namespace pc::core {
namespace {

pc::nvm::FlashConfig
deviceConfig()
{
    pc::nvm::FlashConfig cfg;
    cfg.capacity = 256 * kMiB;
    return cfg;
}

TileCloudletConfig
mapConfig()
{
    TileCloudletConfig cfg;
    cfg.name = "maps";
    cfg.itemSize = 5 * kKiB;
    cfg.universeItems = 100'000;
    cfg.popularitySkew = 0.9;
    return cfg;
}

class TileCloudletTest : public ::testing::Test
{
  protected:
    TileCloudletTest()
        : device_(deviceConfig()), store_(device_),
          tiles_(store_, mapConfig())
    {
    }

    pc::nvm::FlashDevice device_;
    pc::simfs::FlashStore store_;
    TileCloudlet tiles_;
};

TEST_F(TileCloudletTest, StartsEmpty)
{
    EXPECT_EQ(tiles_.itemsCached(), 0u);
    EXPECT_EQ(tiles_.dataBytes(), 0u);
    EXPECT_EQ(tiles_.indexBytes(), 0u);
    EXPECT_DOUBLE_EQ(tiles_.expectedHitRate(), 0.0);
    SimTime t = 0;
    EXPECT_FALSE(tiles_.access(0, t));
}

TEST_F(TileCloudletTest, FillTopCachesPrefix)
{
    SimTime t = 0;
    tiles_.fillTop(1000, t);
    EXPECT_EQ(tiles_.itemsCached(), 1000u);
    EXPECT_EQ(tiles_.dataBytes(), 1000u * 5 * kKiB);
    EXPECT_GT(t, 0) << "the push writes flash";

    EXPECT_TRUE(tiles_.access(0, t));
    EXPECT_TRUE(tiles_.access(999, t));
    EXPECT_FALSE(tiles_.access(1000, t));
    EXPECT_EQ(tiles_.lookups(), 3u);
    EXPECT_EQ(tiles_.hits(), 2u);
    EXPECT_NEAR(tiles_.hitRate(), 2.0 / 3.0, 1e-12);
}

TEST_F(TileCloudletTest, ExpectedHitRateMatchesEmpirical)
{
    SimTime t = 0;
    tiles_.fillTop(5000, t);
    Rng rng(5);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const u64 id = tiles_.sampleAccess(rng);
        SimTime tt = 0;
        hits += tiles_.access(id, tt);
    }
    EXPECT_NEAR(double(hits) / n, tiles_.expectedHitRate(), 0.01);
}

TEST_F(TileCloudletTest, ShrinkEvictsLeastPopular)
{
    SimTime t = 0;
    tiles_.fillTop(1000, t);
    const Bytes released = tiles_.shrinkTo(500 * 5 * kKiB);
    EXPECT_EQ(released, 500u * 5 * kKiB);
    EXPECT_EQ(tiles_.itemsCached(), 500u);
    EXPECT_TRUE(tiles_.access(499, t));
    EXPECT_FALSE(tiles_.access(500, t)) << "tail evicted first";
    EXPECT_LT(tiles_.expectedHitRate(), 1.0);
}

TEST_F(TileCloudletTest, ShrinkToLargerBudgetIsNoop)
{
    SimTime t = 0;
    tiles_.fillTop(100, t);
    EXPECT_EQ(tiles_.shrinkTo(10 * kMiB), 0u);
    EXPECT_EQ(tiles_.itemsCached(), 100u);
}

TEST_F(TileCloudletTest, FlashAccountingThroughStore)
{
    SimTime t = 0;
    tiles_.fillTop(200, t);
    EXPECT_GE(store_.stats().physicalBytes, tiles_.dataBytes());
}

TEST_F(TileCloudletTest, TwoCloudletsCoexist)
{
    TileCloudletConfig ads = mapConfig();
    ads.name = "ads";
    TileCloudlet ads_cl(store_, ads);
    SimTime t = 0;
    tiles_.fillTop(100, t);
    ads_cl.fillTop(50, t);
    EXPECT_EQ(tiles_.itemsCached(), 100u);
    EXPECT_EQ(ads_cl.itemsCached(), 50u);
    EXPECT_TRUE(tiles_.access(99, t));
    EXPECT_FALSE(ads_cl.access(99, t));
}

TEST(SearchCloudletAdapter, ReportsPocketSearchState)
{
    workload::UniverseConfig ucfg;
    ucfg.navResults = 100;
    ucfg.nonNavResults = 400;
    ucfg.navHead = 20;
    ucfg.nonNavHead = 20;
    ucfg.habitNavHead = 10;
    ucfg.habitNonNavHead = 10;
    workload::QueryUniverse uni(ucfg);
    pc::nvm::FlashDevice device(deviceConfig());
    pc::simfs::FlashStore store(device);
    PocketSearch ps(uni, store);
    SearchCloudlet adapter(ps);

    EXPECT_EQ(adapter.name(), "search");
    EXPECT_EQ(adapter.lookups(), 0u);

    SimTime t = 0;
    const workload::PairRef p{uni.result(0).queries.front().first, 0};
    ps.recordClick(p, t);
    ps.servePair(p);
    EXPECT_EQ(adapter.lookups(), 1u);
    EXPECT_EQ(adapter.hits(), 1u);
    EXPECT_GT(adapter.indexBytes(), 0u);
    EXPECT_GT(adapter.dataBytes(), 0u);
    EXPECT_EQ(adapter.shrinkTo(0), 0u) << "online shrink is a no-op";
}

} // namespace
} // namespace pc::core
