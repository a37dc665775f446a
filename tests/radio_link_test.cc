/**
 * @file
 * Unit tests for the radio link models.
 */

#include <gtest/gtest.h>

#include "radio/link.h"

namespace pc::radio {
namespace {

TEST(TransferTime, BasicArithmetic)
{
    // 100 KB at 800 kbit/s = 1.024 s.
    const SimTime t = transferTime(100 * 1024, 800e3);
    EXPECT_NEAR(toSeconds(t), 1.024, 0.001);
    EXPECT_EQ(transferTime(0, 1e6), 0);
}

TEST(RadioLink, ColdStartPaysWakeup)
{
    RadioLink link(threeGConfig());
    EXPECT_TRUE(link.needsWakeup(0));
    const auto r = link.request(0, 1024, 100 * 1024, fromMillis(250));
    ASSERT_FALSE(r.segments.empty());
    EXPECT_EQ(r.segments.front().label, "wakeup");
    EXPECT_GE(r.segments.front().duration, fromMillis(1500))
        << "paper: 1.5-2 s radio wake-up";
    EXPECT_LE(r.segments.front().duration, fromMillis(2000));
}

TEST(RadioLink, BackToBackSkipsWakeup)
{
    RadioLink link(threeGConfig());
    const auto first = link.request(0, 1024, 100 * 1024, fromMillis(250));
    // A second query right after the first lands inside the tail.
    const SimTime now = first.latency + fromMillis(100);
    EXPECT_FALSE(link.needsWakeup(now));
    const auto second =
        link.request(now, 1024, 100 * 1024, fromMillis(250));
    EXPECT_NE(second.segments.front().label, "wakeup");
    EXPECT_LT(second.latency, first.latency);
}

TEST(RadioLink, IdleGapForcesWakeupAgain)
{
    RadioLink link(threeGConfig());
    const auto first = link.request(0, 1024, 100 * 1024, fromMillis(250));
    const SimTime later = first.latency + fromMillis(10'000);
    EXPECT_TRUE(link.needsWakeup(later));
}

TEST(RadioLink, LatencyOrderingMatchesPaper)
{
    // Figure 15a ordering for a search exchange: EDGE > 3G > WiFi.
    RadioLink threeg(threeGConfig());
    RadioLink edge(edgeConfig());
    RadioLink wifi(wifiConfig());
    const Bytes up = 1 * kKiB, down = 100 * kKiB;
    const SimTime server = fromMillis(250);
    const SimTime t3g = threeg.request(0, up, down, server).latency;
    const SimTime tedge = edge.request(0, up, down, server).latency;
    const SimTime twifi = wifi.request(0, up, down, server).latency;
    EXPECT_GT(tedge, t3g);
    EXPECT_GT(t3g, twifi);
}

TEST(RadioLink, EnergyIncludesTail)
{
    RadioLink link(threeGConfig());
    const auto r = link.request(0, 1024, 100 * 1024, fromMillis(250));
    MicroJoules sum = 0;
    SimTime latency = 0;
    bool has_tail = false;
    for (const auto &seg : r.segments) {
        sum += energyOver(seg.power, seg.duration);
        if (seg.label == "tail") {
            has_tail = true;
        } else {
            latency += seg.duration;
        }
    }
    EXPECT_TRUE(has_tail);
    EXPECT_NEAR(r.radioEnergy, sum, 1e-6);
    EXPECT_EQ(r.latency, latency) << "tail costs energy, not latency";
}

TEST(RadioLink, StatsAccumulate)
{
    RadioLink link(edgeConfig());
    link.request(0, 100, 100, 0);
    link.request(kSecond * 100, 100, 100, 0);
    EXPECT_EQ(link.requests(), 2u);
    EXPECT_GT(link.totalEnergy(), 0.0);
}

TEST(RadioLink, ServerTimeCountsTowardLatency)
{
    RadioLink a(threeGConfig()), b(threeGConfig());
    const SimTime t0 = a.request(0, 100, 100, 0).latency;
    const SimTime t1 = b.request(0, 100, 100, fromMillis(500)).latency;
    EXPECT_EQ(t1 - t0, fromMillis(500));
}

TEST(RadioLink, ThroughputAffectsDownlinkOnly)
{
    LinkConfig fast = threeGConfig();
    fast.downlinkBps = 10e6;
    RadioLink slow(threeGConfig());
    RadioLink quick(fast);
    const SimTime ts = slow.request(0, 100, 1000 * 1024, 0).latency;
    const SimTime tq = quick.request(0, 100, 1000 * 1024, 0).latency;
    EXPECT_GT(ts, tq);
}

} // namespace
} // namespace pc::radio
