/**
 * @file
 * Unit tests for community log generation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>

#include "util/crc32.h"
#include "workload/loggen.h"

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

class LogGenTest : public ::testing::Test
{
  protected:
    LogGenTest() : uni_(tinyUniverse())
    {
        LogGenConfig lg;
        lg.seed = 5;
        lg.numUsers = 300;
        gen_ = std::make_unique<LogGenerator>(uni_, PopulationConfig{},
                                              lg);
    }

    QueryUniverse uni_;
    std::unique_ptr<LogGenerator> gen_;
};

TEST_F(LogGenTest, RecordCountEqualsSumOfVolumes)
{
    const auto log = gen_->generateMonth();
    std::size_t expected = 0;
    for (const auto &p : gen_->population())
        expected += p.monthlyVolume;
    EXPECT_EQ(log.size(), expected);
}

TEST_F(LogGenTest, RecordsSortedByTime)
{
    const auto log = gen_->generateMonth();
    SimTime prev = -1;
    for (const auto &rec : log.records()) {
        EXPECT_GE(rec.time, prev);
        prev = rec.time;
    }
}

TEST_F(LogGenTest, RecordsCarryDeviceOfUser)
{
    const auto log = gen_->generateMonth();
    std::unordered_map<u64, DeviceType> devices;
    for (const auto &p : gen_->population())
        devices[p.id] = p.device;
    for (const auto &rec : log.records())
        EXPECT_EQ(rec.device, devices.at(rec.user));
}

TEST_F(LogGenTest, ConsecutiveMonthsAdvanceWindow)
{
    const auto m1 = gen_->generateMonth();
    const auto m2 = gen_->generateMonth();
    EXPECT_LT(m1.records().back().time, kMonth);
    EXPECT_GE(m2.records().front().time, kMonth);
    EXPECT_LT(m2.records().back().time, 2 * kMonth);
}

TEST_F(LogGenTest, AllUsersAppear)
{
    const auto log = gen_->generateMonth();
    std::unordered_map<u64, u64> per_user;
    for (const auto &rec : log.records())
        ++per_user[rec.user];
    EXPECT_EQ(per_user.size(), gen_->population().size());
    for (const auto &p : gen_->population())
        EXPECT_EQ(per_user.at(p.id), p.monthlyVolume);
}

// Golden digest of six community months: every field of every record,
// in log order. Any change to a draw, to the pick order of re-finds or
// to the time sort moves it; a pure speed-up must leave it unchanged.
TEST_F(LogGenTest, GoldenSixMonthDigest)
{
    std::string buf;
    u32 crc = 0;
    std::size_t records = 0;
    const auto put = [&buf](u64 v, int n) {
        for (int i = 0; i < n; ++i)
            buf.push_back(char((v >> (8 * i)) & 0xff));
    };
    for (int m = 0; m < 6; ++m) {
        const auto log = gen_->generateMonth();
        records += log.size();
        for (const auto &rec : log.records()) {
            buf.clear();
            put(u64(rec.user), 8);
            put(u64(rec.time), 8);
            put(rec.pair.query, 4);
            put(rec.pair.result, 4);
            put(u64(rec.device), 1);
            crc = crc32(buf, crc);
        }
    }
    EXPECT_EQ(records, 123756u);
    EXPECT_EQ(crc, 0x16bfd245u);
}

/** Every field of two logs, record by record. */
void
expectSameRecords(const std::vector<LogRecord> &got,
                  const std::vector<LogRecord> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].time, want[i].time) << what << " record " << i;
        ASSERT_EQ(got[i].user, want[i].user) << what << " record " << i;
        ASSERT_TRUE(got[i].pair == want[i].pair) << what << " record " << i;
        ASSERT_EQ(got[i].device, want[i].device) << what << " record " << i;
    }
}

/** sortByTime on `recs` must give exactly std::stable_sort's order. */
void
expectStableSortOrder(const QueryUniverse &uni,
                      const std::vector<LogRecord> &recs,
                      const std::string &what)
{
    SearchLog log(uni);
    for (const auto &r : recs)
        log.add(r);
    log.sortByTime();
    std::vector<LogRecord> want = recs;
    std::stable_sort(want.begin(), want.end(),
                     [](const LogRecord &a, const LogRecord &b) {
                         return a.time < b.time;
                     });
    expectSameRecords(log.records(), want, what);
}

/**
 * A log shaped like LogGenerator's before its sort: one time-ordered
 * run per user, users in order. Times come from `span` distinct
 * values, so small spans tie records across users and within a run.
 */
std::vector<LogRecord>
userRuns(Rng &rng, u32 users, u32 max_run, SimTime start, u64 span)
{
    std::vector<LogRecord> out;
    for (u32 u = 0; u < users; ++u) {
        const u32 len = u32(rng.below(max_run + 1));
        std::vector<SimTime> times(len);
        for (auto &t : times)
            t = start + SimTime(rng.below(span));
        std::sort(times.begin(), times.end());
        for (u32 k = 0; k < len; ++k)
            out.emplace_back(u, times[k], PairRef{k, u32(out.size())},
                             u % 2 ? DeviceType::Featurephone
                                   : DeviceType::Smartphone);
    }
    return out;
}

// The time sort is a stable sort: ties keep log order, across users
// and within one user's run, for logs of every size.
TEST_F(LogGenTest, SortByTimeMatchesStableSortOnSmallLogs)
{
    const auto rec = [](u32 user, SimTime t, u32 tag) {
        return LogRecord(user, t, PairRef{tag, tag}, DeviceType::Smartphone);
    };
    expectStableSortOrder(uni_, {}, "empty log");
    expectStableSortOrder(uni_, {rec(3, 17, 0)}, "one record");
    expectStableSortOrder(uni_, {rec(1, 5, 0), rec(2, 9, 1)}, "two, ordered");
    expectStableSortOrder(uni_, {rec(1, 9, 0), rec(2, 5, 1)},
                          "two, reversed");
    expectStableSortOrder(uni_, {rec(1, 7, 0), rec(2, 7, 1)},
                          "two, tied across users");
    expectStableSortOrder(uni_, {rec(4, 7, 0), rec(4, 7, 1)},
                          "two, tied within a user");
    expectStableSortOrder(uni_, {rec(1, 7, 0), rec(2, 7, 1), rec(3, 7, 2)},
                          "all tied");
}

TEST_F(LogGenTest, SortByTimeMatchesStableSortOnUserRuns)
{
    Rng rng(91);
    for (int trial = 0; trial < 40; ++trial) {
        const u32 users = 1 + u32(rng.below(400));
        const u32 max_run = 1 + u32(rng.below(60));
        // Spans from a handful of instants (ties everywhere) to a
        // month of nanoseconds (ties rare).
        const u64 span = trial % 4 == 0 ? 1 + rng.below(8)
            : trial % 4 == 1            ? 1 + rng.below(5'000)
                                        : u64(kMonth);
        const SimTime start = SimTime(rng.below(24)) * kMonth;
        expectStableSortOrder(uni_, userRuns(rng, users, max_run, start, span),
                              "trial " + std::to_string(trial));
    }
}

// Nothing outside LogGenerator promises per-user order, so the sort
// must hold for any record order and any times: shuffled logs,
// reversed logs, negative times and the full SimTime range.
TEST_F(LogGenTest, SortByTimeMatchesStableSortOnArbitraryLogs)
{
    Rng rng(92);
    const SimTime lo = std::numeric_limits<SimTime>::min();
    const SimTime hi = std::numeric_limits<SimTime>::max();
    for (int trial = 0; trial < 40; ++trial) {
        auto recs = userRuns(rng, 1 + u32(rng.below(300)), 40, 0,
                             1 + rng.below(trial % 2 ? 50 : u64(kMonth)));
        switch (trial % 5) {
          case 0:
            rng.shuffle(recs);
            break;
          case 1:
            std::reverse(recs.begin(), recs.end());
            break;
          case 2:
            for (auto &r : recs)
                r.time -= SimTime(kMonth);
            rng.shuffle(recs);
            break;
          case 3:
            // Outliers at both ends of the range: almost every record
            // shares one narrow slice of a huge span.
            if (!recs.empty()) {
                recs.front().time = hi;
                recs.back().time = lo;
            }
            break;
          default:
            for (auto &r : recs)
                r.time = SimTime(rng.next());
            break;
        }
        expectStableSortOrder(uni_, recs, "trial " + std::to_string(trial));
    }
}

} // namespace
} // namespace pc::workload
