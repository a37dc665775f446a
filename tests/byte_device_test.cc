/**
 * @file
 * Unit tests for the DRAM/PCM byte-addressable device models.
 */

#include <gtest/gtest.h>

#include "nvm/byte_device.h"

namespace pc::nvm {
namespace {

TEST(ByteDevice, DramDefaults)
{
    ByteDevice d(dramConfig());
    EXPECT_EQ(d.name(), "dram");
    EXPECT_FALSE(d.nonVolatile());
    EXPECT_EQ(d.capacity(), 512 * kMiB);
}

TEST(ByteDevice, PcmDefaults)
{
    ByteDevice p(pcmConfig());
    EXPECT_EQ(p.name(), "pcm");
    EXPECT_TRUE(p.nonVolatile());
}

TEST(ByteDevice, PcmSlowerThanDramFasterThanNothing)
{
    // The three-tier premise (Section 3.3): PCM reads ~3x DRAM, both
    // far faster than NAND's ~100us page access.
    ByteDevice d(dramConfig());
    ByteDevice p(pcmConfig());
    const SimTime dr = d.read(0, 64);
    const SimTime pr = p.read(0, 64);
    EXPECT_GT(pr, dr);
    EXPECT_LT(pr, 100 * kMicrosecond);
}

TEST(ByteDevice, LatencyHasPerByteComponent)
{
    ByteDeviceConfig cfg = pcmConfig();
    cfg.perByte = 2;
    ByteDevice p(cfg);
    const SimTime small = p.read(0, 16);
    const SimTime big = p.read(0, 4096);
    EXPECT_EQ(big - small, SimTime(4096 - 16) * 2);
}

TEST(ByteDevice, StatsAccumulate)
{
    ByteDevice d(dramConfig());
    d.read(0, 128);
    d.read(128, 64);
    EXPECT_EQ(d.stats().bytesRead, 192u);
    EXPECT_GT(d.stats().energy, 0.0);
}

TEST(ByteDeviceDeath, OutOfRangePanics)
{
    ByteDeviceConfig cfg = dramConfig(1 * kMiB);
    ByteDevice d(cfg);
    EXPECT_DEATH(d.read(kMiB, 1), "beyond");
    EXPECT_DEATH(d.read(kMiB - 1, 2), "beyond");
}

TEST(EnergyOver, UnitArithmetic)
{
    // 1000 mW for 1 second = 1 J = 1e6 uJ.
    EXPECT_NEAR(energyOver(1000.0, kSecond), 1e6, 1e-6);
    // 900 mW for 378 ms ~= 0.34 J (the PocketSearch per-query energy).
    EXPECT_NEAR(energyOver(900.0, fromMillis(378)), 340200.0, 1.0);
}

} // namespace
} // namespace pc::nvm
