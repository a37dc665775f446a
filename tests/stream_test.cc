/**
 * @file
 * Unit tests for per-user stream generation.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "util/crc32.h"
#include "workload/stream.h"

namespace pc::workload {
namespace {

UniverseConfig
tinyUniverse()
{
    UniverseConfig cfg;
    cfg.navResults = 500;
    cfg.nonNavResults = 2000;
    cfg.navHead = 60;
    cfg.nonNavHead = 60;
    cfg.habitNavHead = 40;
    cfg.habitNonNavHead = 25;
    return cfg;
}

UserProfile
profile(u32 volume, double new_rate)
{
    UserProfile p;
    p.id = 1;
    p.monthlyVolume = volume;
    p.newRate = new_rate;
    p.hotSetSize = 5;
    return p;
}

class StreamTest : public ::testing::Test
{
  protected:
    StreamTest() : uni_(tinyUniverse()) {}
    QueryUniverse uni_;
};

TEST_F(StreamTest, MonthProducesExactlyVolumeEvents)
{
    UserStream s(uni_, profile(57, 0.4), 7);
    const auto events = s.month(0);
    EXPECT_EQ(events.size(), 57u);
    EXPECT_EQ(s.eventsGenerated(), 57u);
}

TEST_F(StreamTest, EventTimesAscendWithinMonthWindow)
{
    UserStream s(uni_, profile(100, 0.4), 11);
    const auto events = s.month(0);
    SimTime prev = -1;
    for (const auto &ev : events) {
        EXPECT_GE(ev.time, 0);
        EXPECT_LT(ev.time, kMonth);
        EXPECT_GE(ev.time, prev);
        prev = ev.time;
    }
}

TEST_F(StreamTest, SecondMonthShiftsWindow)
{
    UserStream s(uni_, profile(30, 0.4), 13);
    s.month(0);
    const auto events = s.month(kMonth);
    for (const auto &ev : events) {
        EXPECT_GE(ev.time, kMonth);
        EXPECT_LT(ev.time, 2 * kMonth);
    }
}

TEST_F(StreamTest, RepeatDrawFlagConsistent)
{
    UserStream s(uni_, profile(200, 0.3), 17);
    s.beginMonth(0);
    std::unordered_set<u64> seen;
    const auto key = [](const PairRef &p) {
        return (u64(p.query) << 32) | p.result;
    };
    // First event can never be an episodic repeat; repeatDraw events
    // must target the hot set or previously issued pairs.
    UserStream probe(uni_, profile(200, 0.3), 17);
    probe.beginMonth(0);
    std::unordered_set<u64> hot;
    for (const auto &p : probe.hotSet())
        hot.insert(key(p));
    for (int i = 0; i < 200; ++i) {
        const auto ev = probe.next();
        if (ev.repeatDraw) {
            EXPECT_TRUE(hot.count(key(ev.pair)) ||
                        seen.count(key(ev.pair)))
                << "repeat draw must come from hot set or history";
        }
        seen.insert(key(ev.pair));
    }
}

TEST_F(StreamTest, ZeroNewRateUserMostlyRepeats)
{
    UserStream s(uni_, profile(300, 0.02), 19);
    const auto events = s.month(0);
    std::unordered_set<u64> distinct;
    for (const auto &ev : events)
        distinct.insert((u64(ev.pair.query) << 32) | ev.pair.result);
    // A near-pure repeater touches few distinct pairs.
    EXPECT_LT(distinct.size(), 40u);
}

TEST_F(StreamTest, HighNewRateUserExplores)
{
    UserStream s(uni_, profile(300, 0.95), 23);
    const auto events = s.month(0);
    std::unordered_set<u64> distinct;
    for (const auto &ev : events)
        distinct.insert((u64(ev.pair.query) << 32) | ev.pair.result);
    EXPECT_GT(distinct.size(), 150u);
}

TEST_F(StreamTest, HistoryGrowsMonotonically)
{
    UserStream s(uni_, profile(50, 0.5), 29);
    s.beginMonth(0);
    std::size_t prev = 0;
    for (int i = 0; i < 50; ++i) {
        s.next();
        EXPECT_GE(s.historySize(), prev);
        prev = s.historySize();
    }
    EXPECT_LE(prev, 50u);
}

TEST_F(StreamTest, DeterministicForSeed)
{
    UserStream a(uni_, profile(80, 0.4), 31);
    UserStream b(uni_, profile(80, 0.4), 31);
    const auto ea = a.month(0);
    const auto eb = b.month(0);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_TRUE(ea[i].pair == eb[i].pair);
        EXPECT_EQ(ea[i].time, eb[i].time);
    }
}

TEST_F(StreamTest, HotSetSizeMatchesProfile)
{
    UserStream s(uni_, profile(30, 0.4), 37);
    EXPECT_EQ(s.hotSet().size(), 5u);
}

/** Append `v` to `buf` as `n` little-endian bytes. */
void
putLe(std::string &buf, u64 v, int n)
{
    for (int i = 0; i < n; ++i)
        buf.push_back(char((v >> (8 * i)) & 0xff));
}

/**
 * CRC-32 over every event of 24 consecutive months, with the trend
 * epoch advanced each month as LogGenerator does. Each event
 * contributes (time, query, result, repeatDraw).
 */
u32
streamDigest(const QueryUniverse &uni, const UserProfile &p, u64 seed)
{
    UserStream s(uni, p, seed);
    std::string buf;
    u32 crc = 0;
    for (u32 m = 0; m < 24; ++m) {
        s.setEpoch(m);
        for (const auto &ev : s.month(SimTime(m) * kMonth)) {
            buf.clear();
            putLe(buf, u64(ev.time), 8);
            putLe(buf, ev.pair.query, 4);
            putLe(buf, ev.pair.result, 4);
            putLe(buf, ev.repeatDraw ? 1 : 0, 1);
            crc = crc32(buf, crc);
        }
    }
    return crc;
}

UserProfile
goldenProfile(u32 volume, double new_rate, double skew, u32 hot)
{
    UserProfile p = profile(volume, new_rate);
    p.repeatSkew = skew;
    p.hotSetSize = hot;
    return p;
}

// Golden digests of the stream generator's output. Any change to the
// draw sequence, the history pick order or the re-find weights moves
// them; a pure speed-up must leave every one unchanged.
TEST_F(StreamTest, GoldenExplorerHighVolume)
{
    EXPECT_EQ(streamDigest(uni_, goldenProfile(2000, 0.95, 1.3, 6), 101),
              0x2bf5ebadu);
}

TEST_F(StreamTest, GoldenMixedLowSkew)
{
    EXPECT_EQ(streamDigest(uni_, goldenProfile(1500, 0.4, 0.7, 12), 202),
              0x8866dc8eu);
}

TEST_F(StreamTest, GoldenRepeaterHighVolumeLowSkew)
{
    EXPECT_EQ(streamDigest(uni_, goldenProfile(2000, 0.02, 0.7, 4), 303),
              0xeb160e50u);
}

TEST_F(StreamTest, GoldenRepeaterLowVolume)
{
    EXPECT_EQ(streamDigest(uni_, goldenProfile(300, 0.02, 1.3, 6), 404),
              0xd9acb45eu);
}

TEST_F(StreamTest, GoldenMixedHighSkewWideHotSet)
{
    EXPECT_EQ(streamDigest(uni_, goldenProfile(800, 0.4, 1.3, 20), 505),
              0xff381decu);
}

u64
pairKey(const PairRef &p)
{
    return (u64(p.query) << 32) | p.result;
}

// The history index must count exactly the distinct pairs emitted,
// through many table growths and past the u16 position range.
TEST(StreamIndex, HistorySizeTracksDistinctPairsPastSeventyThousand)
{
    UniverseConfig cfg;
    cfg.navResults = 20'000;
    cfg.nonNavResults = 80'000;
    const QueryUniverse uni(cfg);
    UserProfile p = profile(25'000, 0.95);
    // Few re-finds: each costs a pass over the history, and the index
    // is what this test is about.
    p.favoritesBias = 0.9;
    UserStream s(uni, p, 77);
    std::unordered_set<u64> distinct;
    for (u32 m = 0; distinct.size() <= 70'000; ++m) {
        ASSERT_LT(m, 24u) << "stream stopped finding new pairs";
        s.setEpoch(m);
        s.beginMonth(SimTime(m) * kMonth);
        for (u32 k = 0; k < p.monthlyVolume; ++k)
            distinct.insert(pairKey(s.next().pair));
        ASSERT_EQ(s.historySize(), distinct.size()) << "month " << m;
    }
}

// A copied stream, and one moved by a vector reallocation, carry the
// history and its index along: all emit the original's next events.
TEST_F(StreamTest, CopiedAndMovedStreamsContinueIdentically)
{
    const UserProfile p = profile(2'000, 0.6);
    UserStream s(uni_, p, 41);
    for (u32 m = 0; m < 3; ++m)
        s.month(SimTime(m) * kMonth);
    s.setEpoch(3);
    s.beginMonth(3 * kMonth);
    for (int i = 0; i < 700; ++i)
        s.next();
    ASSERT_GT(s.historySize(), 1'000u);

    // Otherwise the reallocation below would copy, not move.
    static_assert(std::is_nothrow_move_constructible_v<UserStream>);
    UserStream copy = s;
    std::vector<UserStream> moved;
    moved.reserve(1);
    moved.push_back(s);
    moved.push_back(s); // reallocates: the first element moves
    for (int i = 0; i < 10'000; ++i) {
        const auto want = s.next();
        for (UserStream *other : {&copy, &moved[0], &moved[1]}) {
            const auto got = other->next();
            ASSERT_EQ(got.time, want.time) << "event " << i;
            ASSERT_TRUE(got.pair == want.pair) << "event " << i;
            ASSERT_EQ(got.repeatDraw, want.repeatDraw) << "event " << i;
        }
    }
    EXPECT_EQ(copy.historySize(), s.historySize());
    EXPECT_EQ(moved[0].historySize(), s.historySize());
}

} // namespace
} // namespace pc::workload
