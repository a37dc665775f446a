/**
 * @file
 * Unit tests for community log generation.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace pc::workload
