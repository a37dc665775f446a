/**
 * @file
 * Unit tests for the deterministic fault-injection plan: outage
 * schedules, per-exchange draws, crash arming, and wear-correlated bit
 * flips.
 */

#include <gtest/gtest.h>

#include "fault/fault_plan.h"

namespace pc::fault {
namespace {

TEST(FaultPlanTest, DisabledPlanInjectsNothing)
{
    FaultPlan plan;
    for (SimTime t = 0; t < 100 * kSecond; t += kSecond)
        EXPECT_FALSE(plan.inOutage(t));
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(plan.drawExchangeFailure());
        EXPECT_FALSE(plan.drawLatencySpike());
    }
    std::string buf(64, 'x');
    EXPECT_FALSE(plan.maybeFlipBit(buf, 0, buf.size(), 10'000));
    EXPECT_EQ(buf, std::string(64, 'x'));
    EXPECT_EQ(plan.stats(), InjectedStats{});
}

TEST(FaultPlanTest, OutageScheduleIsDeterministic)
{
    FaultConfig cfg;
    cfg.seed = 7;
    cfg.radio.outageShare = 0.3;
    cfg.radio.meanOutageDuration = 20 * kSecond;
    FaultPlan a(cfg);
    FaultPlan b(cfg);
    for (SimTime t = 0; t < 3600 * kSecond; t += 500 * kMillisecond)
        ASSERT_EQ(a.inOutage(t), b.inOutage(t)) << "at t=" << t;
}

TEST(FaultPlanTest, OutageShareApproximatesTarget)
{
    FaultConfig cfg;
    cfg.seed = 11;
    cfg.radio.outageShare = 0.25;
    cfg.radio.meanOutageDuration = 30 * kSecond;
    FaultPlan plan(cfg);
    u64 out = 0, total = 0;
    // A long walk at fine granularity; the alternating-exponential
    // schedule must hit the long-run share within a small tolerance.
    for (SimTime t = 0; t < 200'000 * kSecond; t += kSecond) {
        ++total;
        if (plan.inOutage(t))
            ++out;
    }
    EXPECT_NEAR(double(out) / double(total), 0.25, 0.03);
}

TEST(FaultPlanTest, ExchangeFailureRateAndCounting)
{
    FaultConfig cfg;
    cfg.seed = 5;
    cfg.radio.exchangeFailureRate = 0.2;
    FaultPlan plan(cfg);
    u64 failures = 0;
    const int kDraws = 20'000;
    for (int i = 0; i < kDraws; ++i)
        failures += plan.drawExchangeFailure() ? 1 : 0;
    EXPECT_NEAR(double(failures) / kDraws, 0.2, 0.02);
    EXPECT_EQ(plan.stats().exchangeFailures, failures)
        << "every injected failure is counted";
}

TEST(FaultPlanTest, FailurePointStaysInsideOpenInterval)
{
    FaultConfig cfg;
    cfg.seed = 9;
    FaultPlan plan(cfg);
    for (int i = 0; i < 1000; ++i) {
        const double p = plan.drawFailurePoint();
        EXPECT_GT(p, 0.0);
        EXPECT_LT(p, 1.0);
    }
}

TEST(FaultPlanTest, JitterBounds)
{
    FaultConfig cfg;
    cfg.seed = 13;
    FaultPlan plan(cfg);
    for (int i = 0; i < 1000; ++i) {
        const double j = plan.jitter(0.25);
        EXPECT_GE(j, 0.75);
        EXPECT_LE(j, 1.25);
    }
    EXPECT_EQ(plan.jitter(0.0), 1.0);
}

TEST(FaultPlanTest, CrashBudgetTearsAtTheArmedByte)
{
    FaultPlan plan;
    EXPECT_EQ(plan.programBudget(100), 100u) << "unarmed: full budget";
    EXPECT_FALSE(plan.powerLost());

    plan.armCrashAfterBytes(10);
    EXPECT_EQ(plan.programBudget(4), 4u);
    EXPECT_FALSE(plan.powerLost());
    EXPECT_EQ(plan.programBudget(10), 6u) << "crash fires mid-program";
    EXPECT_TRUE(plan.powerLost());
    EXPECT_EQ(plan.programBudget(50), 0u) << "power is out";
    EXPECT_EQ(plan.stats().crashes, 1u);

    plan.reboot();
    EXPECT_FALSE(plan.powerLost());
    EXPECT_EQ(plan.programBudget(50), 50u) << "disarmed after reboot";
    EXPECT_EQ(plan.stats().crashes, 1u) << "a crash fires only once";
}

TEST(FaultPlanTest, BitFlipsScaleWithWearAndAreCounted)
{
    FaultConfig cfg;
    cfg.seed = 17;
    cfg.storage.bitFlipPerReadPerKiloErase = 0.5;
    FaultPlan plan(cfg);

    std::string pristine(32, 'p');
    // Unworn block: never flips.
    for (int i = 0; i < 1000; ++i) {
        std::string buf = pristine;
        EXPECT_FALSE(plan.maybeFlipBit(buf, 0, buf.size(), 0));
        EXPECT_EQ(buf, pristine);
    }
    // Heavily worn block (2000 erases -> p == 1): always flips one bit.
    u64 flips = 0;
    for (int i = 0; i < 100; ++i) {
        std::string buf = pristine;
        ASSERT_TRUE(plan.maybeFlipBit(buf, 0, buf.size(), 2000));
        int diff_bits = 0;
        for (std::size_t b = 0; b < buf.size(); ++b) {
            u8 x = u8(buf[b]) ^ u8(pristine[b]);
            while (x) {
                diff_bits += x & 1;
                x >>= 1;
            }
        }
        EXPECT_EQ(diff_bits, 1) << "exactly one bit flips";
        ++flips;
    }
    EXPECT_EQ(plan.stats().bitFlips, flips);
}

TEST(FaultPlanTest, SameSeedSameDrawSequence)
{
    FaultConfig cfg;
    cfg.seed = 2024;
    cfg.radio.exchangeFailureRate = 0.37;
    cfg.radio.latencySpikeRate = 0.11;
    FaultPlan a(cfg);
    FaultPlan b(cfg);
    for (int i = 0; i < 5000; ++i) {
        ASSERT_EQ(a.drawExchangeFailure(), b.drawExchangeFailure());
        ASSERT_EQ(a.drawLatencySpike(), b.drawLatencySpike());
        ASSERT_DOUBLE_EQ(a.jitter(0.25), b.jitter(0.25));
    }
}

} // namespace
} // namespace pc::fault
