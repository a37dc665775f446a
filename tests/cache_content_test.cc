/**
 * @file
 * Unit tests for cache content generation (Section 5.1).
 */

#include <gtest/gtest.h>

#include "core/cache_content.h"

namespace pc::core {
namespace {

workload::UniverseConfig
tinyUniverse()
{
    workload::UniverseConfig cfg;
    cfg.navResults = 100;
    cfg.nonNavResults = 400;
    cfg.navHead = 20;
    cfg.nonNavHead = 20;
    cfg.habitNavHead = 10;
    cfg.habitNonNavHead = 10;
    cfg.sharedQueryProb = 0.0;
    cfg.meanAliases = 0.0;
    return cfg;
}

class CacheContentTest : public ::testing::Test
{
  protected:
    CacheContentTest()
        : uni_(tinyUniverse()), log_(uni_), builder_(uni_)
    {
    }

    void
    addN(u32 query, u32 result, int n)
    {
        for (int i = 0; i < n; ++i) {
            log_.add({1, SimTime(i), {query, result},
                      workload::DeviceType::Smartphone});
        }
    }

    workload::QueryUniverse uni_;
    workload::SearchLog log_;
    CacheContentBuilder builder_;
};

TEST_F(CacheContentTest, ScoresNormalizePerQuery)
{
    // The paper's example: "michael jackson" -> imdb 10/19 = 0.53,
    // azlyrics 9/19 = 0.47.
    addN(7, 10, 1000000 / 1000); // scale down the Table 3 numbers
    addN(7, 11, 900000 / 1000);
    addN(8, 12, 500);
    const auto table = logs::TripletTable::fromLog(log_);
    ContentPolicy policy;
    policy.kind = ThresholdKind::VolumeShare;
    policy.volumeShare = 1.0;
    const auto contents = builder_.build(table, policy);
    ASSERT_EQ(contents.pairs.size(), 3u);
    double imdb = 0, azlyrics = 0, single = 0;
    for (const auto &sp : contents.pairs) {
        if (sp.pair.result == 10)
            imdb = sp.score;
        else if (sp.pair.result == 11)
            azlyrics = sp.score;
        else
            single = sp.score;
    }
    EXPECT_NEAR(imdb, 10.0 / 19.0, 1e-9);
    EXPECT_NEAR(azlyrics, 9.0 / 19.0, 1e-9);
    EXPECT_DOUBLE_EQ(single, 1.0);
}

TEST_F(CacheContentTest, VolumeShareThresholdStopsAtTarget)
{
    addN(1, 10, 50);
    addN(2, 11, 30);
    addN(3, 12, 20);
    const auto table = logs::TripletTable::fromLog(log_);
    ContentPolicy policy;
    policy.kind = ThresholdKind::VolumeShare;
    policy.volumeShare = 0.55;
    const auto contents = builder_.build(table, policy);
    // 50% after one pair < 55%, 80% after two -> stops after adding the
    // second pair.
    EXPECT_EQ(contents.pairs.size(), 2u);
    EXPECT_NEAR(contents.cumulativeShare, 0.8, 1e-9);
}

TEST_F(CacheContentTest, SaturationThresholdDropsColdPairs)
{
    addN(1, 10, 96);
    addN(2, 11, 3);
    addN(3, 12, 1);
    const auto table = logs::TripletTable::fromLog(log_);
    ContentPolicy policy;
    policy.kind = ThresholdKind::CacheSaturation;
    policy.saturationVth = 0.02; // 2% normalized volume
    const auto contents = builder_.build(table, policy);
    ASSERT_EQ(contents.pairs.size(), 2u);
    EXPECT_EQ(contents.pairs[1].pair.query, 2u);
}

TEST_F(CacheContentTest, FlashBudgetThreshold)
{
    for (u32 i = 0; i < 20; ++i)
        addN(i, i, 100 - int(i));
    const auto table = logs::TripletTable::fromLog(log_);
    ContentPolicy policy;
    policy.kind = ThresholdKind::FlashBudget;
    policy.flashBudget = 5 * 500; // roughly five 500-byte records
    const auto contents = builder_.build(table, policy);
    EXPECT_GE(contents.pairs.size(), 4u);
    EXPECT_LE(contents.pairs.size(), 6u);
    EXPECT_LE(contents.flashBytes, policy.flashBudget);
}

TEST_F(CacheContentTest, DramBudgetThreshold)
{
    for (u32 i = 0; i < 50; ++i)
        addN(i, i, 100 - int(i));
    const auto table = logs::TripletTable::fromLog(log_);
    ContentPolicy policy;
    policy.kind = ThresholdKind::DramBudget;
    HashEntryLayout layout;
    policy.dramBudget = 10 * layout.entryBytes();
    const auto contents = builder_.build(table, policy);
    EXPECT_EQ(contents.pairs.size(), 10u)
        << "single-result queries: one entry each";
    EXPECT_LE(contents.dramBytes, policy.dramBudget);
}

TEST_F(CacheContentTest, SharedResultStoredOnce)
{
    // Two queries pointing at one result: flash counts the record once
    // (the paper's 8x storage-reduction argument).
    addN(1, 10, 50);
    addN(2, 10, 40);
    const auto table = logs::TripletTable::fromLog(log_);
    ContentPolicy policy;
    policy.kind = ThresholdKind::VolumeShare;
    policy.volumeShare = 1.0;
    const auto contents = builder_.build(table, policy);
    EXPECT_EQ(contents.pairs.size(), 2u);
    EXPECT_EQ(contents.uniqueResults, 1u);
    EXPECT_EQ(contents.flashBytes,
              workload::QueryUniverse::recordSize(uni_.result(10)));
}

TEST_F(CacheContentTest, FootprintGrowsWithVolumeShare)
{
    // The Figure 8 sweep: a rising volume share caches a growing
    // prefix of the triplet table, so neither footprint may shrink.
    for (u32 i = 0; i < 30; ++i)
        addN(i, i, 100 - int(i));
    addN(0, 30, 60); // a second result under query 0 shares its entry
    const auto table = logs::TripletTable::fromLog(log_);
    ContentPolicy policy;
    policy.kind = ThresholdKind::VolumeShare;
    std::size_t prev_pairs = 0;
    Bytes prev_dram = 0, prev_flash = 0;
    for (int step = 0; step <= 10; ++step) {
        policy.volumeShare = 0.1 * step;
        const auto contents = builder_.build(table, policy);
        EXPECT_GE(contents.pairs.size(), prev_pairs);
        EXPECT_GE(contents.dramBytes, prev_dram);
        EXPECT_GE(contents.flashBytes, prev_flash);
        prev_pairs = contents.pairs.size();
        prev_dram = contents.dramBytes;
        prev_flash = contents.flashBytes;
    }
    EXPECT_EQ(prev_pairs, 31u);
    EXPECT_EQ(prev_dram, 30 * HashEntryLayout{}.entryBytes());
    EXPECT_GT(prev_flash, 0u);
}

TEST_F(CacheContentTest, DramFootprintFigure11Shape)
{
    // Build contents where most queries have 1-2 results and verify the
    // two-slot layout beats one- and four-slot layouts, the Figure 11
    // minimum.
    std::vector<ScoredPair> pairs;
    u32 next_result = 0;
    for (u32 q = 0; q < 100; ++q) {
        const u32 results = (q % 10 == 0) ? 3 : (q % 2 ? 2 : 1);
        for (u32 r = 0; r < results; ++r)
            pairs.push_back({{q, next_result++}, 1.0, 1});
    }
    HashEntryLayout l1{1}, l2{2}, l4{4};
    const Bytes b1 = builder_.dramFootprint(pairs, l1);
    const Bytes b2 = builder_.dramFootprint(pairs, l2);
    const Bytes b4 = builder_.dramFootprint(pairs, l4);
    EXPECT_LT(b2, b1);
    EXPECT_LT(b2, b4);
}

TEST_F(CacheContentTest, EmptyTable)
{
    const auto table = logs::TripletTable::fromLog(log_);
    ContentPolicy policy;
    const auto contents = builder_.build(table, policy);
    EXPECT_TRUE(contents.pairs.empty());
    EXPECT_EQ(contents.flashBytes, 0u);
    EXPECT_EQ(contents.dramBytes, 0u);
}

} // namespace
} // namespace pc::core
