/**
 * @file
 * Unit tests for the auto-suggest prefix index and PocketSearch's
 * instant-results-while-typing path (Figure 1).
 */

#include <gtest/gtest.h>

#include "core/pocket_search.h"
#include "core/suggest.h"
#include "util/rng.h"

namespace pc::core {
namespace {

TEST(SuggestIndex, InsertAndPrefixLookup)
{
    SuggestIndex idx;
    EXPECT_TRUE(idx.insert("youtube", 0.9));
    EXPECT_TRUE(idx.insert("yotube", 0.2));
    EXPECT_TRUE(idx.insert("yellow pages", 0.5));
    EXPECT_TRUE(idx.insert("facebook", 1.0));
    EXPECT_EQ(idx.size(), 4u);

    SimTime t = 0;
    const auto y = idx.suggest("y", 10, &t);
    ASSERT_EQ(y.size(), 3u);
    EXPECT_EQ(y[0].query, "youtube") << "ordered by score";
    EXPECT_EQ(y[1].query, "yellow pages");
    EXPECT_EQ(y[2].query, "yotube");
    EXPECT_EQ(t, SuggestIndex::kKeystrokeLatency);

    const auto you = idx.suggest("you", 10);
    ASSERT_EQ(you.size(), 1u);
    EXPECT_EQ(you[0].query, "youtube");
}

TEST(SuggestIndex, EmptyPrefixMatchesEverything)
{
    SuggestIndex idx;
    idx.insert("a", 0.1);
    idx.insert("b", 0.9);
    const auto all = idx.suggest("", 10);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].query, "b");
}

TEST(SuggestIndex, TopKLimits)
{
    SuggestIndex idx;
    for (int i = 0; i < 20; ++i)
        idx.insert("query" + std::to_string(i), double(i));
    const auto top3 = idx.suggest("query", 3);
    ASSERT_EQ(top3.size(), 3u);
    EXPECT_EQ(top3[0].query, "query19");
    EXPECT_TRUE(idx.suggest("query", 0).empty());
}

TEST(SuggestIndex, ScoresOnlyRatchetUp)
{
    SuggestIndex idx;
    idx.insert("cnn", 0.8);
    EXPECT_FALSE(idx.insert("cnn", 0.3)) << "existing entry";
    const auto s = idx.suggest("cnn", 1);
    EXPECT_DOUBLE_EQ(s[0].score, 0.8);
    idx.insert("cnn", 1.5);
    EXPECT_DOUBLE_EQ(idx.suggest("cnn", 1)[0].score, 1.5);
}

TEST(SuggestIndex, EraseAndClear)
{
    SuggestIndex idx;
    idx.insert("abc", 1.0);
    idx.insert("abd", 1.0);
    EXPECT_TRUE(idx.erase("abc"));
    EXPECT_FALSE(idx.erase("abc"));
    EXPECT_EQ(idx.suggest("ab", 10).size(), 1u);
    idx.clear();
    EXPECT_EQ(idx.size(), 0u);
}

TEST(SuggestIndex, NoFalsePrefixMatches)
{
    SuggestIndex idx;
    idx.insert("car", 1.0);
    idx.insert("cart", 1.0);
    idx.insert("cat", 1.0);
    EXPECT_EQ(idx.suggest("car", 10).size(), 2u);
    EXPECT_EQ(idx.suggest("cart", 10).size(), 1u);
    EXPECT_TRUE(idx.suggest("carts", 10).empty());
    EXPECT_TRUE(idx.suggest("d", 10).empty());
}

TEST(SuggestIndex, MemoryBytesGrowWithContent)
{
    SuggestIndex idx;
    const Bytes empty = idx.memoryBytes();
    idx.insert("some query string", 1.0);
    EXPECT_GT(idx.memoryBytes(), empty);
}

TEST(SuggestIndex, BulkKeepsMaxScoreOfRepeatedQuery)
{
    SuggestIndex idx;
    idx.insert("cnn", 0.8);
    idx.insertBulk({{"cnn", 0.3}, {"bbc", 0.2}, {"bbc", 0.7}, {"bbc", 0.5},
                    {"cnn", 1.5}});
    EXPECT_EQ(idx.size(), 2u);
    EXPECT_DOUBLE_EQ(idx.suggest("bbc", 1)[0].score, 0.7);
    EXPECT_DOUBLE_EQ(idx.suggest("cnn", 1)[0].score, 1.5);
    idx.insertBulk({});
    EXPECT_EQ(idx.size(), 2u);
}

/** Random short query over a tiny alphabet: many shared prefixes. */
std::string
randomQuery(Rng &rng)
{
    static constexpr char kAlphabet[] = "ab c";
    std::string q(1 + rng.below(5), ' ');
    for (char &c : q)
        c = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    return q;
}

/** Same size, footprint and suggest output for every prefix of every
 *  query in `queries` (and the empty prefix), at several k. */
void
expectSameIndex(const SuggestIndex &want, const SuggestIndex &got,
                const std::vector<std::string> &queries)
{
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.memoryBytes(), want.memoryBytes());
    for (const auto &q : queries) {
        for (std::size_t len = 0; len <= q.size(); ++len) {
            const std::string_view prefix(q.data(), len);
            for (const u32 k : {1u, 3u, ~0u}) {
                const auto a = want.suggest(prefix, k);
                const auto b = got.suggest(prefix, k);
                ASSERT_EQ(b.size(), a.size()) << "prefix '" << prefix << "'";
                for (std::size_t i = 0; i < a.size(); ++i) {
                    ASSERT_EQ(b[i].query, a[i].query);
                    ASSERT_EQ(b[i].score, a[i].score);
                }
            }
        }
    }
}

TEST(SuggestIndex, BulkInsertMatchesOneInsertPerItem)
{
    for (u64 seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::vector<std::string> queries;
        // Half the seeds merge into an empty index, half into one that
        // already holds entries (some of which the batch repeats).
        const std::size_t preload = seed % 2 ? 0 : rng.below(30);
        const std::size_t batch_size = rng.below(60); // 0 = empty batch
        for (std::size_t i = 0; i < preload + batch_size; ++i)
            queries.push_back(randomQuery(rng));

        SuggestIndex want, got;
        for (std::size_t i = 0; i < preload; ++i) {
            const double score = 0.25 * double(rng.below(6));
            want.insert(queries[i], score);
            got.insert(queries[i], score);
        }
        std::vector<std::pair<std::string_view, double>> batch;
        for (std::size_t i = preload; i < queries.size(); ++i) {
            // Scores from a small set: repeated queries see both ties
            // and differing scores within one batch.
            const double score = 0.25 * double(rng.below(6));
            want.insert(queries[i], score);
            batch.emplace_back(queries[i], score);
        }
        got.insertBulk(std::move(batch));
        expectSameIndex(want, got, queries);
    }
}

class PocketSuggestTest : public ::testing::Test
{
  protected:
    PocketSuggestTest()
    {
        workload::UniverseConfig ucfg;
        ucfg.navResults = 200;
        ucfg.nonNavResults = 800;
        ucfg.navHead = 30;
        ucfg.nonNavHead = 30;
        ucfg.habitNavHead = 20;
        ucfg.habitNonNavHead = 15;
        uni_ = std::make_unique<workload::QueryUniverse>(ucfg);
        pc::nvm::FlashConfig fc;
        fc.capacity = 64 * kMiB;
        flash_ = std::make_unique<pc::nvm::FlashDevice>(fc);
        store_ = std::make_unique<pc::simfs::FlashStore>(*flash_);
        ps_ = std::make_unique<PocketSearch>(*uni_, *store_);
    }

    std::unique_ptr<workload::QueryUniverse> uni_;
    std::unique_ptr<pc::nvm::FlashDevice> flash_;
    std::unique_ptr<pc::simfs::FlashStore> store_;
    std::unique_ptr<PocketSearch> ps_;
};

TEST_F(PocketSuggestTest, TypingSurfacesCachedQueryWithResults)
{
    const workload::PairRef p{uni_->result(0).queries.front().first, 0};
    const std::string &q = uni_->query(p.query).text;
    SimTime t = 0;
    ps_->installPair(p, 0.9, false, t);

    // Type the query one character at a time; once the prefix is
    // unambiguous the full query with its result must appear.
    const auto out = ps_->suggestWithResults(q.substr(0, 2), 5, 1);
    bool found = false;
    for (const auto &row : out.rows) {
        if (row.suggestion.query == q) {
            found = true;
            ASSERT_EQ(row.results.size(), 1u);
            EXPECT_EQ(row.results[0].url, uni_->result(0).url);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_GT(out.latency, 0);
}

TEST_F(PocketSuggestTest, ClicksFeedTheBox)
{
    const workload::PairRef p{
        uni_->result(42).queries.front().first, 42};
    const std::string &q = uni_->query(p.query).text;
    EXPECT_TRUE(ps_->suggestWithResults(q.substr(0, 3), 5).rows.empty());
    SimTime t = 0;
    ps_->recordClick(p, t);
    const auto out = ps_->suggestWithResults(q.substr(0, 3), 5);
    ASSERT_FALSE(out.rows.empty());
    EXPECT_EQ(out.rows[0].suggestion.query, q);
}

TEST_F(PocketSuggestTest, DisabledIndexStaysEmpty)
{
    PocketSearchConfig cfg;
    cfg.enableSuggest = false;
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice flash(fc);
    pc::simfs::FlashStore store(flash);
    PocketSearch ps(*uni_, store, cfg);
    SimTime t = 0;
    ps.installPair({uni_->result(0).queries.front().first, 0}, 0.9,
                   false, t);
    EXPECT_EQ(ps.suggestIndex().size(), 0u);
}

TEST_F(PocketSuggestTest, ClearTableClearsSuggestions)
{
    SimTime t = 0;
    ps_->installPair({uni_->result(0).queries.front().first, 0}, 0.9,
                     false, t);
    EXPECT_GT(ps_->suggestIndex().size(), 0u);
    ps_->clearTable();
    EXPECT_EQ(ps_->suggestIndex().size(), 0u);
}

} // namespace
} // namespace pc::core
