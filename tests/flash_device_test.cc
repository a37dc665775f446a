/**
 * @file
 * Unit and property tests for the NAND flash timing model.
 */

#include <gtest/gtest.h>

#include "nvm/flash_device.h"

namespace pc::nvm {
namespace {

FlashConfig
smallConfig()
{
    FlashConfig cfg;
    cfg.pageSize = 4 * kKiB;
    cfg.pagesPerBlock = 4;
    cfg.capacity = 1 * kMiB;
    return cfg;
}

TEST(FlashDevice, PagesSpanned)
{
    FlashDevice d(smallConfig());
    EXPECT_EQ(d.pagesSpanned(0, 0), 0u);
    EXPECT_EQ(d.pagesSpanned(0, 1), 1u);
    EXPECT_EQ(d.pagesSpanned(0, 4096), 1u);
    EXPECT_EQ(d.pagesSpanned(0, 4097), 2u);
    EXPECT_EQ(d.pagesSpanned(4095, 2), 2u) << "straddles a page boundary";
    EXPECT_EQ(d.pagesSpanned(4096, 4096), 1u);
}

TEST(FlashDevice, ReadLatencyScalesWithPages)
{
    FlashDevice d(smallConfig());
    const SimTime one = d.read(0, 100);
    const SimTime two = d.read(0, 5000); // 2 pages
    EXPECT_EQ(two, 2 * one)
        << "a sub-page read still costs a full page; two pages cost 2x";
}

TEST(FlashDevice, SmallReadPaysFullPage)
{
    FlashDevice d(smallConfig());
    EXPECT_EQ(d.read(0, 1), d.read(0, 4096));
}

TEST(FlashDevice, WriteSlowerThanRead)
{
    FlashDevice d(smallConfig());
    EXPECT_GT(d.write(0, 100), d.read(0, 100));
}

TEST(FlashDevice, EraseTracksWear)
{
    FlashDevice d(smallConfig());
    EXPECT_EQ(d.maxWear(), 0u);
    d.eraseBlockAt(0);
    d.eraseBlockAt(0);
    d.eraseBlockAt(16 * kKiB); // second block (4 pages * 4KiB)
    EXPECT_EQ(d.blockEraseCount(0), 2u);
    EXPECT_EQ(d.blockEraseCount(1), 1u);
    EXPECT_EQ(d.maxWear(), 2u);
    EXPECT_EQ(d.blocksErased(), 3u);
}

TEST(FlashDevice, StatsAccumulate)
{
    FlashDevice d(smallConfig());
    d.read(0, 100);
    d.write(0, 200);
    const auto &s = d.stats();
    EXPECT_EQ(s.readOps, 1u);
    EXPECT_EQ(s.writeOps, 1u);
    EXPECT_EQ(s.bytesRead, 100u);
    EXPECT_EQ(s.bytesWritten, 200u);
    EXPECT_GT(s.busyTime, 0);
    EXPECT_GT(s.energy, 0.0);
    EXPECT_EQ(d.pagesRead(), 1u);
    EXPECT_EQ(d.pagesProgrammed(), 1u);
}

TEST(FlashDevice, ResetStatsKeepsWear)
{
    FlashDevice d(smallConfig());
    d.eraseBlockAt(0);
    d.resetStats();
    EXPECT_EQ(d.stats().writeOps, 0u);
    EXPECT_EQ(d.blockEraseCount(0), 1u) << "wear is physical, not a stat";
}

TEST(FlashDeviceDeath, OutOfRangeAccessPanics)
{
    FlashDevice d(smallConfig());
    EXPECT_DEATH(d.read(kMiB - 10, 100), "beyond capacity");
    EXPECT_DEATH(d.write(kMiB, 1), "beyond capacity");
}

TEST(FlashDeviceDeath, MisalignedCapacityPanics)
{
    FlashConfig cfg = smallConfig();
    cfg.capacity = 4 * kKiB + 1;
    EXPECT_DEATH(FlashDevice d(cfg), "page-aligned");
}

/** Property sweep over paper-relevant block sizes (Section 5.2.2). */
class FlashGeometry : public ::testing::TestWithParam<Bytes>
{
};

TEST_P(FlashGeometry, EnergyProportionalToBusyTime)
{
    FlashConfig cfg;
    cfg.pageSize = GetParam();
    cfg.pagesPerBlock = 8;
    cfg.capacity = 4 * kMiB;
    FlashDevice d(cfg);
    const SimTime t = d.read(0, 3 * cfg.pageSize);
    EXPECT_NEAR(d.stats().energy, energyOver(cfg.activePower, t), 1e-9);
}

TEST_P(FlashGeometry, ReadTimeMonotoneInLength)
{
    FlashConfig cfg;
    cfg.pageSize = GetParam();
    cfg.pagesPerBlock = 8;
    cfg.capacity = 4 * kMiB;
    FlashDevice d(cfg);
    SimTime prev = 0;
    for (Bytes len = 1; len <= 8 * cfg.pageSize; len *= 2) {
        const SimTime t = d.read(0, len);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, FlashGeometry,
                         ::testing::Values(2 * kKiB, 4 * kKiB, 8 * kKiB));

TEST(EnergyOver, UnitArithmetic)
{
    // 1000 mW for 1 second = 1 J = 1e6 uJ.
    EXPECT_NEAR(energyOver(1000.0, kSecond), 1e6, 1e-6);
    // 900 mW for 378 ms ~= 0.34 J (the PocketSearch per-query energy).
    EXPECT_NEAR(energyOver(900.0, fromMillis(378)), 340200.0, 1.0);
}

} // namespace
} // namespace pc::nvm
