/**
 * @file
 * Unit tests for the query hash table (Figure 10) including the
 * Equation (1)/(2) ranking updates and the Figure 11 footprint model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/hash_table.h"

namespace pc::core {
namespace {

TEST(QueryHashTable, InsertAndLookup)
{
    QueryHashTable t;
    EXPECT_TRUE(t.insert("youtube", 100, 0.9));
    EXPECT_TRUE(t.insert("youtube", 200, 0.1));
    SimTime time = 0;
    const auto refs = t.lookup("youtube", &time);
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_EQ(refs[0].urlHash, 100u) << "sorted by descending score";
    EXPECT_EQ(refs[1].urlHash, 200u);
    EXPECT_EQ(time, QueryHashTable::kLookupLatency);
    EXPECT_EQ(t.pairs(), 2u);
    EXPECT_EQ(t.entries(), 1u) << "two results fit one entry";
}

TEST(QueryHashTable, MissReturnsEmpty)
{
    QueryHashTable t;
    t.insert("youtube", 100, 1.0);
    EXPECT_TRUE(t.lookup("facebook").empty());
    EXPECT_FALSE(t.containsPair("youtube", 999));
    EXPECT_TRUE(t.containsPair("youtube", 100));
}

TEST(QueryHashTable, DuplicateInsertIsNoop)
{
    QueryHashTable t;
    EXPECT_TRUE(t.insert("q", 1, 0.5));
    EXPECT_FALSE(t.insert("q", 1, 0.9));
    const auto refs = t.lookup("q");
    ASSERT_EQ(refs.size(), 1u);
    EXPECT_DOUBLE_EQ(refs[0].score, 0.5) << "original score kept";
}

TEST(QueryHashTable, ChainsBeyondTwoResults)
{
    // "michael jackson" with 5 results spans 3 entries (Figure 10's
    // second-hash-argument chaining).
    QueryHashTable t;
    for (u64 i = 1; i <= 5; ++i)
        t.insert("michael jackson", i * 10, 1.0 / double(i));
    EXPECT_EQ(t.pairs(), 5u);
    EXPECT_EQ(t.entries(), 3u);
    const auto refs = t.lookup("michael jackson");
    ASSERT_EQ(refs.size(), 5u);
    for (std::size_t i = 1; i < refs.size(); ++i)
        EXPECT_LE(refs[i].score, refs[i - 1].score);
}

TEST(QueryHashTable, ApplyClickImplementsEquations)
{
    // Section 5.3: clicked score += 1; unclicked sibling *= e^-lambda.
    QueryHashTable t;
    t.insert("michael jackson", 1, 0.53); // imdb
    t.insert("michael jackson", 2, 0.47); // azlyrics
    const double lambda = 0.1;
    EXPECT_TRUE(t.applyClick("michael jackson", 1, lambda));
    const auto refs = t.lookup("michael jackson");
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_DOUBLE_EQ(refs[0].score, 1.53);
    EXPECT_NEAR(refs[1].score, 0.47 * std::exp(-lambda), 1e-12);
    EXPECT_TRUE(refs[0].userAccessed);
    EXPECT_FALSE(refs[1].userAccessed);
}

TEST(QueryHashTable, ApplyClickInsertsUnknownPairWithScoreOne)
{
    QueryHashTable t;
    EXPECT_FALSE(t.applyClick("new query", 42, 0.1));
    const auto refs = t.lookup("new query");
    ASSERT_EQ(refs.size(), 1u);
    EXPECT_DOUBLE_EQ(refs[0].score, 1.0)
        << "new pairs get the maximum initial score";
    EXPECT_TRUE(refs[0].userAccessed);
}

TEST(QueryHashTable, RepeatedClicksFavorFreshness)
{
    // 100 old clicks on R1, then recent clicks on R2: R2 overtakes
    // (the paper's freshness argument).
    QueryHashTable t;
    t.insert("q", 1, 0.5);
    t.insert("q", 2, 0.5);
    for (int i = 0; i < 5; ++i)
        t.applyClick("q", 1, 0.2);
    for (int i = 0; i < 7; ++i)
        t.applyClick("q", 2, 0.2);
    const auto refs = t.lookup("q");
    EXPECT_EQ(refs[0].urlHash, 2u);
}

TEST(QueryHashTable, ClickDecaysAcrossChainEntries)
{
    QueryHashTable t;
    for (u64 i = 1; i <= 4; ++i)
        t.insert("q", i, 1.0);
    t.applyClick("q", 1, 0.5);
    for (const auto &r : t.lookup("q")) {
        if (r.urlHash == 1)
            EXPECT_DOUBLE_EQ(r.score, 2.0);
        else
            EXPECT_NEAR(r.score, std::exp(-0.5), 1e-12)
                << "decay must reach slot " << r.urlHash;
    }
}

TEST(QueryHashTable, SetScore)
{
    QueryHashTable t;
    t.insert("q", 1, 0.3);
    EXPECT_TRUE(t.setScore("q", 1, 0.8));
    EXPECT_FALSE(t.setScore("q", 2, 0.8));
    const auto refs = t.lookup("q");
    EXPECT_DOUBLE_EQ(refs[0].score, 0.8);
    EXPECT_FALSE(refs[0].userAccessed) << "a score write is not a click";
}

TEST(QueryHashTable, ErasePairCompactsChain)
{
    QueryHashTable t;
    for (u64 i = 1; i <= 5; ++i)
        t.insert("q", i, double(i));
    EXPECT_TRUE(t.erasePair("q", 3));
    EXPECT_EQ(t.pairs(), 4u);
    EXPECT_EQ(t.entries(), 2u) << "chain must compact to 2 entries";
    const auto refs = t.lookup("q");
    ASSERT_EQ(refs.size(), 4u);
    for (const auto &r : refs)
        EXPECT_NE(r.urlHash, 3u);
    EXPECT_FALSE(t.erasePair("q", 99));
}

TEST(QueryHashTable, EraseQueryRemovesEverything)
{
    QueryHashTable t;
    for (u64 i = 1; i <= 5; ++i)
        t.insert("q", i, 1.0);
    t.insert("other", 7, 1.0);
    EXPECT_EQ(t.eraseQuery("q"), 5u);
    EXPECT_TRUE(t.lookup("q").empty());
    EXPECT_EQ(t.pairs(), 1u);
    EXPECT_FALSE(t.lookup("other").empty());
}

TEST(QueryHashTable, ClearResets)
{
    QueryHashTable t;
    t.insert("a", 1, 1.0);
    t.insert("b", 2, 1.0);
    t.clear();
    EXPECT_EQ(t.pairs(), 0u);
    EXPECT_EQ(t.entries(), 0u);
    EXPECT_EQ(t.memoryBytes(), 0u);
}

TEST(QueryHashTable, ForEachPairVisitsAll)
{
    QueryHashTable t;
    t.insert("a", 1, 1.0);
    t.insert("a", 2, 1.0);
    t.insert("b", 3, 1.0, true);
    std::size_t count = 0;
    bool saw_accessed = false;
    t.forEachPair([&](u64 qh, const ResultRef &r) {
        (void)qh;
        ++count;
        saw_accessed |= r.userAccessed;
    });
    EXPECT_EQ(count, 3u);
    EXPECT_TRUE(saw_accessed);
}

TEST(QueryHashTable, MemoryBytesTracksEntries)
{
    HashEntryLayout layout;
    layout.resultsPerEntry = 2;
    QueryHashTable t(layout);
    t.insert("a", 1, 1.0);
    EXPECT_EQ(t.memoryBytes(), layout.entryBytes());
    t.insert("a", 2, 1.0);
    EXPECT_EQ(t.memoryBytes(), layout.entryBytes());
    t.insert("a", 3, 1.0);
    EXPECT_EQ(t.memoryBytes(), 2 * layout.entryBytes());
}

/** Figure 11's layout arithmetic across slots-per-entry. */
class LayoutSweep : public ::testing::TestWithParam<u32>
{
};

TEST_P(LayoutSweep, EntryBytesFormula)
{
    HashEntryLayout layout;
    layout.resultsPerEntry = GetParam();
    EXPECT_EQ(layout.entryBytes(),
              HashEntryLayout::fixedBytes +
                  HashEntryLayout::overheadBytes +
                  HashEntryLayout::slotBytes * GetParam());
}

TEST_P(LayoutSweep, InsertLookupWorkUnderAnyLayout)
{
    HashEntryLayout layout;
    layout.resultsPerEntry = GetParam();
    QueryHashTable t(layout);
    for (u64 i = 1; i <= 7; ++i)
        t.insert("q", i, double(8 - i));
    const auto refs = t.lookup("q");
    ASSERT_EQ(refs.size(), 7u);
    EXPECT_EQ(refs[0].urlHash, 1u);
    const u64 expected_entries = (7 + GetParam() - 1) / GetParam();
    EXPECT_EQ(t.entries(), expected_entries);
}

INSTANTIATE_TEST_SUITE_P(SlotsPerEntry, LayoutSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

} // namespace
} // namespace pc::core
