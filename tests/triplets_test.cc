/**
 * @file
 * Unit tests for triplet aggregation (Table 3).
 */

#include <gtest/gtest.h>

#include "logs/triplets.h"

namespace pc::logs {
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
    return cfg;
}

class TripletsTest : public ::testing::Test
{
  protected:
    TripletsTest() : uni_(tinyUniverse()), log_(uni_) {}

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
};

TEST_F(TripletsTest, AggregatesAndSortsByVolume)
{
    addN(1, 10, 5);
    addN(2, 11, 9);
    addN(3, 12, 2);
    const auto t = TripletTable::fromLog(log_);
    ASSERT_EQ(t.rows().size(), 3u);
    EXPECT_EQ(t.rows()[0].volume, 9u);
    EXPECT_EQ(t.rows()[0].pair.query, 2u);
    EXPECT_EQ(t.rows()[1].volume, 5u);
    EXPECT_EQ(t.rows()[2].volume, 2u);
    EXPECT_EQ(t.totalVolume(), 16u);
}

TEST_F(TripletsTest, SameQueryDifferentResultsAreDistinctRows)
{
    // Table 3's "michael jackson" -> imdb and azlyrics rows.
    addN(7, 10, 10);
    addN(7, 11, 9);
    const auto t = TripletTable::fromLog(log_);
    ASSERT_EQ(t.rows().size(), 2u);
    EXPECT_EQ(t.rows()[0].pair.result, 10u);
    EXPECT_EQ(t.rows()[1].pair.result, 11u);
}

TEST_F(TripletsTest, NormalizedVolume)
{
    addN(1, 10, 10); // 106-style head pair
    addN(2, 11, 40);
    const auto t = TripletTable::fromLog(log_);
    EXPECT_DOUBLE_EQ(t.normalizedVolume(0), 0.8);
    EXPECT_DOUBLE_EQ(t.normalizedVolume(1), 0.2);
}

TEST_F(TripletsTest, CumulativeShareAndRowsForShare)
{
    addN(1, 10, 50);
    addN(2, 11, 30);
    addN(3, 12, 20);
    const auto t = TripletTable::fromLog(log_);
    EXPECT_DOUBLE_EQ(t.cumulativeShare(0), 0.0);
    EXPECT_DOUBLE_EQ(t.cumulativeShare(1), 0.5);
    EXPECT_DOUBLE_EQ(t.cumulativeShare(2), 0.8);
    EXPECT_DOUBLE_EQ(t.cumulativeShare(3), 1.0);
    EXPECT_DOUBLE_EQ(t.cumulativeShare(99), 1.0);
    EXPECT_EQ(t.rowsForShare(0.5), 1u);
    EXPECT_EQ(t.rowsForShare(0.55), 2u);
    EXPECT_EQ(t.rowsForShare(1.0), 3u);
}

TEST_F(TripletsTest, EmptyLog)
{
    const auto t = TripletTable::fromLog(log_);
    EXPECT_TRUE(t.rows().empty());
    EXPECT_EQ(t.totalVolume(), 0u);
    EXPECT_EQ(t.rowsForShare(0.5), 0u);
    EXPECT_DOUBLE_EQ(t.cumulativeShare(1), 0.0);
}

TEST_F(TripletsTest, DeterministicTieBreak)
{
    addN(5, 20, 3);
    addN(4, 21, 3);
    addN(6, 19, 3);
    const auto a = TripletTable::fromLog(log_);
    const auto b = TripletTable::fromLog(log_);
    for (std::size_t i = 0; i < a.rows().size(); ++i)
        EXPECT_TRUE(a.rows()[i].pair == b.rows()[i].pair);
}

} // namespace
} // namespace pc::logs
