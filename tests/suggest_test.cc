/**
 * @file
 * Unit tests for the auto-suggest prefix index and PocketSearch's
 * instant-results-while-typing path (Figure 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/persistence.h"
#include "core/pocket_search.h"
#include "core/suggest.h"
#include "util/hash.h"
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

/** The index's contract as a plain ordered map: query -> score. */
using SuggestModel = std::map<std::string, double, std::less<>>;

/** The model's suggest(): best score first, ties lexicographic. */
std::vector<Suggestion>
modelSuggest(const SuggestModel &model, std::string_view prefix, u32 k)
{
    std::vector<Suggestion> all;
    for (auto it = model.lower_bound(prefix);
         it != model.end() && std::string_view(it->first).starts_with(prefix);
         ++it)
        all.push_back(Suggestion{it->first, it->second});
    std::sort(all.begin(), all.end(),
              [](const Suggestion &a, const Suggestion &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.query < b.query;
              });
    all.resize(std::min<std::size_t>(k, all.size()));
    return all;
}

/** Query bytes the model holds. */
Bytes
modelLiveBytes(const SuggestModel &model)
{
    Bytes live = 0;
    for (const auto &[q, score] : model)
        live += q.size();
    return live;
}

/** Same size, footprint and suggest output as the model for every
 *  prefix of every query in `queries`, at k = 1, 3 and all. */
void
expectMatchesModel(const SuggestIndex &idx, const SuggestModel &model,
                   const std::vector<std::string> &queries)
{
    ASSERT_EQ(idx.size(), model.size());
    ASSERT_EQ(idx.memoryBytes(),
              modelLiveBytes(model) + model.size() * (sizeof(double) + 16));
    ASSERT_LE(idx.arenaBytes(), 2 * modelLiveBytes(model));
    const std::set<std::string> distinct(queries.begin(), queries.end());
    for (const auto &q : distinct) {
        for (std::size_t len = 0; len <= q.size(); ++len) {
            const std::string_view prefix(q.data(), len);
            for (const u32 k : {1u, 3u, ~0u}) {
                const auto want = modelSuggest(model, prefix, k);
                const auto got = idx.suggest(prefix, k);
                ASSERT_EQ(got.size(), want.size())
                    << "prefix '" << prefix << "' k " << k;
                for (std::size_t i = 0; i < want.size(); ++i) {
                    ASSERT_EQ(got[i].query, want[i].query);
                    ASSERT_EQ(got[i].score, want[i].score);
                }
            }
        }
    }
}

TEST(SuggestIndex, MatchesMapModelUnderMixedOps)
{
    for (u64 seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        SuggestIndex idx;
        SuggestModel model;
        std::vector<std::string> queries;
        for (int step = 0; step < 150; ++step) {
            const double score = 0.25 * double(rng.below(8));
            const u64 op = rng.below(20);
            std::string q = randomQuery(rng);
            // Mostly revisit known queries so erases and assigns hit.
            if (!queries.empty() && rng.below(3) != 0)
                q = queries[rng.below(queries.size())];
            queries.push_back(q);
            if (op < 7) {
                const bool fresh = !model.count(q);
                ASSERT_EQ(idx.insert(q, score), fresh);
                double &m = model[q];
                m = fresh ? score : std::max(m, score);
            } else if (op < 11) {
                ASSERT_EQ(idx.assign(q, score), !model.count(q));
                model[q] = score;
            } else if (op < 17) {
                ASSERT_EQ(idx.erase(q), model.erase(q) == 1);
            } else if (op < 19) {
                std::vector<std::string> owned;
                for (u64 n = rng.below(12); n > 0; --n)
                    owned.push_back(rng.below(2) ? randomQuery(rng)
                                                 : queries[rng.below(
                                                       queries.size())]);
                std::vector<std::pair<std::string_view, double>> batch;
                for (const auto &b : owned) {
                    const double s = 0.25 * double(rng.below(8));
                    batch.emplace_back(b, s);
                    auto [it, fresh] = model.emplace(b, s);
                    if (!fresh)
                        it->second = std::max(it->second, s);
                    queries.push_back(b);
                }
                idx.insertBulk(std::move(batch));
            } else if (rng.below(4) == 0) {
                idx.clear();
                model.clear();
            }
            if (step % 10 == 9)
                expectMatchesModel(idx, model, queries);
            else
                ASSERT_EQ(idx.size(), model.size());
        }
        expectMatchesModel(idx, model, queries);
        // A copy (how a cloned device gets its index) is the same index.
        const SuggestIndex copy(idx);
        expectMatchesModel(copy, model, queries);
    }
}

TEST(SuggestIndex, ArenaStaysWithinTwiceItsLiveBytes)
{
    // Erase/re-insert churn leaves dead arena bytes behind; compaction
    // must keep them from outgrowing the live ones.
    Rng rng(7);
    SuggestIndex idx;
    SuggestModel model;
    std::vector<std::string> queries;
    for (int i = 0; i < 200; ++i)
        queries.push_back("query number " + std::to_string(i) +
                          std::string(rng.below(40), 'x'));
    for (const auto &q : queries) {
        idx.insert(q, 1.0);
        model[q] = 1.0;
    }
    for (int step = 0; step < 20000; ++step) {
        const std::string &q = queries[rng.below(queries.size())];
        if (model.count(q)) {
            ASSERT_TRUE(idx.erase(q));
            model.erase(q);
        } else {
            ASSERT_TRUE(idx.insert(q, double(step)));
            model[q] = double(step);
        }
        ASSERT_LE(idx.arenaBytes(), 2 * modelLiveBytes(model))
            << "step " << step;
    }
    expectMatchesModel(idx, model, queries);
    // Erasing everything leaves no arena behind.
    for (const auto &q : queries)
        idx.erase(q);
    EXPECT_EQ(idx.size(), 0u);
    EXPECT_EQ(idx.arenaBytes(), 0u);
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

// PocketSearch keeps the box at its contract through installs, clicks,
// reranks and evictions; a cloned device carries the same box, and a
// snapshot round trip rebuilds it at each query's best table score.
TEST_F(PocketSuggestTest, BoxMatchesModelAcrossCloneAndSnapshot)
{
    Rng rng(3);
    // A few queries with many candidate results: chains grow, and
    // evictions leave siblings behind.
    std::vector<u32> pool;
    for (int i = 0; i < 10; ++i)
        pool.push_back(u32(rng.below(uni_->numQueries())));
    SuggestModel model;
    std::vector<std::string> queries;
    const auto top = [&](const std::string &q) {
        return ps_->table().lookup(q).front().score;
    };
    SimTime t = 0;
    for (int step = 0; step < 400; ++step) {
        const workload::PairRef p{pool[rng.below(pool.size())],
                                  u32(rng.below(40))};
        const std::string &q = uni_->query(p.query).text;
        queries.push_back(q);
        const double score = 0.25 * double(rng.below(8));
        const auto ratchet = [&](double s) {
            auto [it, fresh] = model.emplace(q, s);
            if (!fresh)
                it->second = std::max(it->second, s);
        };
        switch (rng.below(4)) {
          case 0:
            ps_->installPair(p, score, false, t);
            ratchet(score);
            break;
          case 1:
            ps_->recordClick(p, t);
            ratchet(top(q));
            break;
          case 2:
            if (ps_->setPairScore(p, score))
                model[q] = top(q);
            break;
          default:
            if (ps_->evictPair(p)) {
                if (ps_->table().lookup(q).empty())
                    model.erase(q);
                else
                    model[q] = top(q);
            }
            break;
        }
    }
    ASSERT_GT(model.size(), 3u);
    expectMatchesModel(ps_->suggestIndex(), model, queries);

    pc::nvm::FlashDevice clone_flash(*flash_);
    pc::simfs::FlashStore clone_store(*store_, clone_flash);
    const PocketSearch clone(*ps_, clone_store);
    expectMatchesModel(clone.suggestIndex(), model, queries);

    SuggestModel tops;
    for (const auto &[q, score] : model)
        tops[q] = top(q);
    ASSERT_TRUE(persistIndex(*ps_, *store_, "suggest.snap", t).ok);
    PocketSearch restored(*uni_, *store_);
    ASSERT_TRUE(restoreIndex(restored, *store_, "suggest.snap").ok);
    expectMatchesModel(restored.suggestIndex(), tops, queries);
}

} // namespace
} // namespace pc::core
