/**
 * @file
 * Unit tests for the browser URL-substring-matching baseline.
 */

#include <gtest/gtest.h>

#include "baseline/browser_cache.h"

namespace pc::baseline {
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

class BrowserCacheTest : public ::testing::Test
{
  protected:
    BrowserCacheTest() : uni_(tinyUniverse()), cache_(uni_) {}

    workload::PairRef
    canonicalPair(u32 r)
    {
        return {uni_.result(r).queries.front().first, r};
    }

    workload::QueryUniverse uni_;
    BrowserSubstringCache cache_;
};

TEST_F(BrowserCacheTest, EmptyHistoryNeverHits)
{
    EXPECT_FALSE(cache_.wouldHit(canonicalPair(0)));
    EXPECT_EQ(cache_.historySize(), 0u);
}

TEST_F(BrowserCacheTest, NavigationalRepeatHits)
{
    const auto p = canonicalPair(0); // nav: query is URL substring
    cache_.recordVisit(p);
    EXPECT_TRUE(cache_.wouldHit(p));
}

TEST_F(BrowserCacheTest, NonNavigationalRepeatMisses)
{
    const auto p = canonicalPair(500); // non-nav pool
    cache_.recordVisit(p);
    EXPECT_FALSE(cache_.wouldHit(p))
        << "substring matching cannot serve topic queries";
}

TEST_F(BrowserCacheTest, UnvisitedNavigationalMisses)
{
    cache_.recordVisit(canonicalPair(0));
    EXPECT_FALSE(cache_.wouldHit(canonicalPair(1)))
        << "the browser only suggests visited addresses";
}

TEST_F(BrowserCacheTest, HistoryDeduplicates)
{
    cache_.recordVisit(canonicalPair(0));
    cache_.recordVisit(canonicalPair(0));
    EXPECT_EQ(cache_.historySize(), 1u);
}

TEST_F(BrowserCacheTest, MisspelledNavigationalQueryMisses)
{
    // An alias ("yotube") is not a substring of the URL, so the
    // browser suggestion fails even for a visited site — exactly why
    // PocketSearch caches misspellings explicitly.
    const u32 r = 0;
    cache_.recordVisit(canonicalPair(r));
    for (const auto &[qid, w] : uni_.result(r).queries) {
        (void)w;
        const workload::PairRef alias{qid, r};
        if (!uni_.isNavigationalPair(alias)) {
            EXPECT_FALSE(cache_.wouldHit(alias));
        }
    }
}

} // namespace
} // namespace pc::baseline
