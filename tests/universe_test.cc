/**
 * @file
 * Unit and statistical tests for the query/result universe.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_set>

#include "util/crc32.h"
#include "util/strings.h"
#include "workload/universe.h"

namespace pc::workload {
namespace {

UniverseConfig
smallConfig()
{
    UniverseConfig cfg;
    cfg.navResults = 2000;
    cfg.nonNavResults = 8000;
    cfg.navHead = 250;
    cfg.nonNavHead = 250;
    cfg.habitNavHead = 120;
    cfg.habitNonNavHead = 80;
    return cfg;
}

class UniverseTest : public ::testing::Test
{
  protected:
    UniverseTest() : uni_(smallConfig()) {}
    QueryUniverse uni_;
};

TEST_F(UniverseTest, PoolSizes)
{
    // Base pools plus companion results for head nav queries.
    EXPECT_GE(uni_.numResults(), 10000u);
    EXPECT_LE(uni_.numResults(), 10000u + smallConfig().navResults / 20);
    EXPECT_GE(uni_.numQueries(), 10000u) << "every result has >= 1 query";
}

TEST_F(UniverseTest, CompanionResultsAreNavigational)
{
    for (u32 r = 10000; r < uni_.numResults(); ++r) {
        const auto &res = uni_.result(r);
        EXPECT_TRUE(res.navigational);
        EXPECT_EQ(res.poolRank, kNoPoolRank);
        ASSERT_FALSE(res.queries.empty());
        const PairRef p{res.queries.front().first, r};
        EXPECT_TRUE(uni_.isNavigationalPair(p))
            << res.url << " vs " << uni_.query(p.query).text;
    }
}

TEST_F(UniverseTest, NavResultsComeFirst)
{
    EXPECT_TRUE(uni_.result(0).navigational);
    EXPECT_TRUE(uni_.result(1999).navigational);
    EXPECT_FALSE(uni_.result(2000).navigational);
    EXPECT_FALSE(uni_.result(9999).navigational);
    EXPECT_EQ(uni_.result(0).poolRank, 0u);
    EXPECT_EQ(uni_.result(2000).poolRank, 0u);
}

TEST_F(UniverseTest, EveryResultHasAQueryAndEveryQueryAResult)
{
    for (u32 r = 0; r < uni_.numResults(); ++r)
        EXPECT_FALSE(uni_.result(r).queries.empty()) << "result " << r;
    for (u32 q = 0; q < uni_.numQueries(); ++q)
        EXPECT_FALSE(uni_.query(q).results.empty()) << "query " << q;
}

TEST_F(UniverseTest, NavigationalDefinitionHolds)
{
    // The paper's footnote-1 definition: a query is navigational when
    // the query string is a substring of the clicked URL. Canonical
    // nav pairs must satisfy it; canonical non-nav pairs must not.
    int checked = 0;
    for (u32 r = 0; r < uni_.numResults(); ++r) {
        const auto &res = uni_.result(r);
        const u32 canonical = res.queries.front().first;
        const PairRef p{canonical, r};
        if (res.navigational)
            EXPECT_TRUE(uni_.isNavigationalPair(p)) << res.url;
        else
            EXPECT_FALSE(uni_.isNavigationalPair(p)) << res.url;
        ++checked;
    }
    EXPECT_EQ(checked, int(uni_.numResults()));
}

TEST_F(UniverseTest, QueryResultLinksAreBidirectional)
{
    for (u32 r = 0; r < uni_.numResults(); ++r) {
        for (const auto &[qid, w] : uni_.result(r).queries) {
            (void)w;
            bool found = false;
            for (const auto &[rid, rw] : uni_.query(qid).results) {
                (void)rw;
                found |= (rid == r);
            }
            EXPECT_TRUE(found)
                << "query " << qid << " missing backlink to " << r;
        }
    }
}

TEST_F(UniverseTest, SamplePairIsValidAndConsistent)
{
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const PairRef p = uni_.samplePair(rng, DeviceType::Smartphone);
        ASSERT_LT(p.result, uni_.numResults());
        ASSERT_LT(p.query, uni_.numQueries());
        // The sampled query must actually map to the sampled result.
        bool linked = false;
        for (const auto &[rid, w] : uni_.query(p.query).results) {
            (void)w;
            linked |= (rid == p.result);
        }
        ASSERT_TRUE(linked);
    }
}

TEST_F(UniverseTest, FeaturephoneMoreConcentrated)
{
    Rng rng(5);
    const int n = 40000;
    const u32 head = 100;
    int fp_head = 0, sp_head = 0;
    for (int i = 0; i < n; ++i) {
        auto fp = uni_.samplePair(rng, DeviceType::Featurephone);
        auto sp = uni_.samplePair(rng, DeviceType::Smartphone);
        const auto pool_rank = [&](const PairRef &p) {
            return uni_.result(p.result).navigational
                ? p.result : p.result - smallConfig().navResults;
        };
        fp_head += pool_rank(fp) < head;
        sp_head += pool_rank(sp) < head;
    }
    EXPECT_GT(fp_head, sp_head)
        << "featurephone traffic must be more head-concentrated";
}

TEST_F(UniverseTest, HabitualDrawsMoreConcentratedThanFresh)
{
    Rng rng(7);
    const int n = 30000;
    int habit_in_head = 0, fresh_in_head = 0;
    const auto &cfg = uni_.config();
    for (int i = 0; i < n; ++i) {
        const auto h = uni_.samplePairHabitual(rng,
                                               DeviceType::Smartphone);
        const auto f = uni_.samplePair(rng, DeviceType::Smartphone);
        const auto in_head = [&](const PairRef &p) {
            const auto &res = uni_.result(p.result);
            const u32 rank = res.navigational
                ? p.result : p.result - cfg.navResults;
            return res.navigational ? rank < cfg.habitNavHead
                                    : rank < cfg.habitNonNavHead;
        };
        habit_in_head += in_head(h);
        fresh_in_head += in_head(f);
    }
    EXPECT_GT(habit_in_head, fresh_in_head * 2);
    // Click redistribution sends some habitual clicks to shared/
    // companion results outside the nominal head, so allow slack below
    // the raw mainstream share.
    EXPECT_GT(double(habit_in_head) / n, 0.60);
}

TEST_F(UniverseTest, PairProbabilityMatchesSampling)
{
    // Empirical frequency of the most popular nav pair should match
    // pairProbability within sampling error.
    Rng rng(11);
    const u32 top_query = uni_.result(0).queries.front().first;
    const PairRef top{top_query, 0};
    const double p = uni_.pairProbability(top);
    ASSERT_GT(p, 0.0);
    const int n = 200000;
    int hits = 0;
    for (int i = 0; i < n; ++i) {
        const auto s = uni_.samplePair(rng, DeviceType::Smartphone);
        hits += (s == top);
    }
    EXPECT_NEAR(double(hits) / n, p, 4.0 * std::sqrt(p / n) + 0.001);
}

TEST_F(UniverseTest, DeterministicRebuild)
{
    QueryUniverse other(smallConfig());
    ASSERT_EQ(other.numQueries(), uni_.numQueries());
    for (u32 q = 0; q < uni_.numQueries(); q += 997)
        EXPECT_EQ(other.query(q).text, uni_.query(q).text);
}

TEST_F(UniverseTest, RecordSizeNear500Bytes)
{
    // The paper: ~500 bytes per stored search result.
    for (u32 r = 0; r < 100; ++r) {
        const Bytes sz = QueryUniverse::recordSize(uni_.result(r));
        EXPECT_GE(sz, 400u);
        EXPECT_LE(sz, 700u);
    }
}

TEST_F(UniverseTest, SharedQueriesExist)
{
    // Some non-nav queries map to two results (Table 3's "michael
    // jackson" effect).
    int multi = 0;
    for (u32 q = 0; q < uni_.numQueries(); ++q)
        multi += uni_.query(q).results.size() > 1;
    EXPECT_GT(multi, 0);
}

TEST_F(UniverseTest, UrlsAreWellFormed)
{
    for (u32 r = 0; r < uni_.numResults(); r += 53) {
        const auto &url = uni_.result(r).url;
        EXPECT_TRUE(pc::startsWith(url, "www.") ||
                    pc::startsWith(url, "m."))
            << url;
        EXPECT_NE(url.find(".com"), std::string::npos);
    }
}

/** Incremental CRC-32 over little-endian fields and strings. */
class Digest
{
  public:
    void
    put(u64 v, int n)
    {
        buf_.clear();
        for (int i = 0; i < n; ++i)
            buf_.push_back(char((v >> (8 * i)) & 0xff));
        crc_ = crc32(buf_, crc_);
    }
    void
    put(double d)
    {
        u64 bits;
        std::memcpy(&bits, &d, sizeof bits);
        put(bits, 8);
    }
    void
    put(const std::string &s)
    {
        put(s.size(), 4);
        crc_ = crc32(s, crc_);
    }
    u32 value() const { return crc_; }

  private:
    std::string buf_;
    u32 crc_ = 0;
};

/**
 * CRC-32 over the whole universe: every result's url, title,
 * description, flags and (query, weight) links, then every query's
 * text and (result, weight) links, weights by bit pattern.
 */
u32
universeDigest(const QueryUniverse &u)
{
    Digest d;
    d.put(u.numResults(), 4);
    d.put(u.numQueries(), 4);
    for (u32 r = 0; r < u.numResults(); ++r) {
        const ResultInfo &info = u.result(r);
        d.put(info.url);
        d.put(info.title);
        d.put(info.description);
        d.put(info.navigational ? 1 : 0, 1);
        d.put(info.poolRank, 4);
        d.put(info.queries.size(), 4);
        for (const auto &[qid, w] : info.queries) {
            d.put(qid, 4);
            d.put(w);
        }
    }
    for (u32 q = 0; q < u.numQueries(); ++q) {
        const QueryInfo &info = u.query(q);
        d.put(info.text);
        d.put(info.results.size(), 4);
        for (const auto &[rid, w] : info.results) {
            d.put(rid, 4);
            d.put(w);
        }
    }
    return d.value();
}

/** The workbench's small world (harness::smallWorkbenchConfig). */
UniverseConfig
workbenchConfig()
{
    UniverseConfig cfg;
    cfg.navResults = 8'000;
    cfg.nonNavResults = 32'000;
    cfg.navHead = 800;
    cfg.nonNavHead = 800;
    cfg.habitNavHead = 480;
    cfg.habitNonNavHead = 320;
    cfg.trendStride = 30;
    return cfg;
}

// Golden digests of universe construction. Any change to a string, a
// link, its order or a weight bit moves them; a change of layout alone
// must leave every one unchanged.
TEST_F(UniverseTest, GoldenDigestSmall)
{
    EXPECT_EQ(universeDigest(uni_), 0x8eaead32u);
}

TEST(UniverseGolden, GoldenDigestWorkbench)
{
    EXPECT_EQ(universeDigest(QueryUniverse(workbenchConfig())),
              0xe8ab3025u);
}

TEST(UniverseGolden, GoldenDigestDefault)
{
    EXPECT_EQ(universeDigest(QueryUniverse(UniverseConfig{})), 0x48b89fe7u);
}

/**
 * CRC-32 over 40,000 draws of samplePair (habitual = false) or
 * samplePairHabitual (true, alternating the config's and an overridden
 * navigational share) on one device type and epoch.
 */
u32
drawDigest(const QueryUniverse &u, DeviceType device, u32 epoch,
           bool habitual)
{
    Rng rng(1000 + 10 * u64(device) + epoch + (habitual ? 500 : 0));
    Digest d;
    for (int i = 0; i < 40'000; ++i) {
        const PairRef p = !habitual
            ? u.samplePair(rng, device, epoch)
            : u.samplePairHabitual(rng, device, i % 2 ? 0.5 : -1.0,
                                   epoch);
        d.put(p.query, 4);
        d.put(p.result, 4);
    }
    return d.value();
}

// Golden draw digests for both device types at epochs 0 and 3 (a
// trending epoch), fresh and habitual. A pure speed-up of the pick
// path must leave every draw, and so every digest, unchanged.
TEST(UniverseGolden, GoldenSamplePairDigests)
{
    const QueryUniverse u(workbenchConfig());
    struct Cell
    {
        DeviceType device;
        u32 epoch;
        bool habitual;
        u32 want;
    };
    const Cell cells[] = {
        {DeviceType::Featurephone, 0, false, 0x5ee29d9eu},
        {DeviceType::Featurephone, 3, false, 0xef5b7139u},
        {DeviceType::Smartphone, 0, false, 0x4ff00a84u},
        {DeviceType::Smartphone, 3, false, 0x0b25b763u},
        {DeviceType::Featurephone, 0, true, 0xc9c7b374u},
        {DeviceType::Featurephone, 3, true, 0x3c4d5523u},
        {DeviceType::Smartphone, 0, true, 0xbb4ba128u},
        {DeviceType::Smartphone, 3, true, 0xad39e744u},
    };
    for (const Cell &c : cells)
        EXPECT_EQ(drawDigest(u, c.device, c.epoch, c.habitual), c.want)
            << (c.device == DeviceType::Featurephone ? "featurephone"
                                                     : "smartphone")
            << " epoch " << c.epoch << (c.habitual ? " habitual" : "");
}

} // namespace
} // namespace pc::workload
