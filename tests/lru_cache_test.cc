/**
 * @file
 * Unit tests for the LRU pair-cache baseline.
 */

#include <gtest/gtest.h>

#include "baseline/lru_cache.h"

namespace pc::baseline {
namespace {

workload::PairRef
pair(u32 q, u32 r)
{
    return {q, r};
}

TEST(LruPairCache, InsertAndLookup)
{
    LruPairCache c(4);
    c.insert(pair(1, 1));
    EXPECT_TRUE(c.lookup(pair(1, 1)));
    EXPECT_FALSE(c.lookup(pair(1, 2)));
    EXPECT_EQ(c.size(), 1u);
}

TEST(LruPairCache, EvictsLeastRecentlyUsed)
{
    LruPairCache c(2);
    c.insert(pair(1, 1));
    c.insert(pair(2, 2));
    c.insert(pair(3, 3)); // evicts (1,1)
    EXPECT_FALSE(c.lookup(pair(1, 1)));
    EXPECT_TRUE(c.lookup(pair(2, 2)));
    EXPECT_TRUE(c.lookup(pair(3, 3)));
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(LruPairCache, LookupRefreshesRecency)
{
    LruPairCache c(2);
    c.insert(pair(1, 1));
    c.insert(pair(2, 2));
    EXPECT_TRUE(c.lookup(pair(1, 1))); // 1 becomes MRU
    c.insert(pair(3, 3));              // evicts (2,2)
    EXPECT_TRUE(c.lookup(pair(1, 1)));
    EXPECT_FALSE(c.lookup(pair(2, 2)));
}

TEST(LruPairCache, ReinsertRefreshesWithoutGrowth)
{
    LruPairCache c(2);
    c.insert(pair(1, 1));
    c.insert(pair(2, 2));
    c.insert(pair(1, 1)); // refresh, no eviction
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.evictions(), 0u);
    c.insert(pair(3, 3)); // evicts (2,2)
    EXPECT_TRUE(c.lookup(pair(1, 1)));
}

TEST(LruPairCache, QueryAndResultBothKeyed)
{
    LruPairCache c(8);
    c.insert(pair(1, 1));
    EXPECT_FALSE(c.lookup(pair(1, 2)));
    EXPECT_FALSE(c.lookup(pair(2, 1)));
}

TEST(LruPairCache, CapacityOne)
{
    LruPairCache c(1);
    c.insert(pair(1, 1));
    c.insert(pair(2, 2));
    EXPECT_EQ(c.size(), 1u);
    EXPECT_TRUE(c.lookup(pair(2, 2)));
}

/** Property: size never exceeds capacity across random workloads. */
class LruCapacitySweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LruCapacitySweep, SizeBounded)
{
    LruPairCache c(GetParam());
    pc::Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        c.insert(pair(u32(rng.below(100)), u32(rng.below(100))));
        ASSERT_LE(c.size(), GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruCapacitySweep,
                         ::testing::Values(1u, 3u, 10u, 100u, 10000u));

} // namespace
} // namespace pc::baseline
