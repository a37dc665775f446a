/**
 * @file
 * NAND flash device timing model.
 *
 * Models page-granular reads/programs and block-granular erases with
 * fixed per-operation latencies plus a bus transfer term. Accesses that
 * touch N pages cost N page operations — this is the effect behind the
 * paper's Section 5.2.2 analysis: a 500-byte search-result record still
 * costs a whole page read, and small files still occupy whole allocation
 * blocks.
 *
 * The device holds no payload bytes — file contents live in the simfs
 * layer — it models the *timing, energy and geometry* of accesses, which
 * is what the paper's storage-architecture experiments (Figure 12,
 * Table 4) depend on.
 */

#ifndef PC_NVM_FLASH_DEVICE_H
#define PC_NVM_FLASH_DEVICE_H

#include <string>
#include <vector>

#include "util/types.h"

namespace pc::nvm {

/** Cumulative access statistics for a device. */
struct DeviceStats
{
    u64 readOps = 0;
    u64 writeOps = 0;
    Bytes bytesRead = 0;
    Bytes bytesWritten = 0;
    SimTime busyTime = 0;
    MicroJoules energy = 0;

    bool operator==(const DeviceStats &) const = default;
};

/** Geometry and timing of a NAND part. Defaults resemble 2010-era SLC/MLC. */
struct FlashConfig
{
    Bytes pageSize = 4 * kKiB;    ///< Read/program unit.
    u32 pagesPerBlock = 64;       ///< Erase unit, in pages.
    Bytes capacity = 1 * kGiB;    ///< Usable capacity.
    SimTime readPageLatency = 60 * kMicrosecond;   ///< tR.
    SimTime programPageLatency = 250 * kMicrosecond; ///< tPROG.
    SimTime eraseBlockLatency = 2 * kMillisecond; ///< tBERS.
    /** Bus transfer time per byte (50 MB/s bus => 20 ns/B). */
    SimTime busPerByte = 20;
    MilliWatts activePower = 30.0; ///< Power while busy.

    bool operator==(const FlashConfig &) const = default;
};

/**
 * Timed NAND flash device with wear accounting.
 */
class FlashDevice
{
  public:
    explicit FlashDevice(const FlashConfig &cfg = FlashConfig{});

    /** Device display name. */
    std::string name() const { return "nand-flash"; }
    /** Usable capacity. */
    Bytes capacity() const { return cfg_.capacity; }

    /** Model a read of `len` bytes at `addr`; returns its latency. */
    SimTime read(Bytes addr, Bytes len);
    /** Model a write of `len` bytes at `addr`; returns its latency. */
    SimTime write(Bytes addr, Bytes len);

    /** Model erasing the block containing byte offset `addr`. */
    SimTime eraseBlockAt(Bytes addr);

    /** Geometry/timing configuration. */
    const FlashConfig &config() const { return cfg_; }

    /** Pages touched by a [addr, addr+len) byte range. */
    u64 pagesSpanned(Bytes addr, Bytes len) const;

    /** Number of erases a block has seen (wear). */
    u64 blockEraseCount(u64 block) const;

    /** Highest per-block erase count (wear skew indicator). */
    u64 maxWear() const;

    /** Total pages read since construction. */
    u64 pagesRead() const { return pagesRead_; }
    /** Total pages programmed since construction. */
    u64 pagesProgrammed() const { return pagesProgrammed_; }
    /** Total blocks erased since construction. */
    u64 blocksErased() const { return blocksErased_; }

    /** Cumulative statistics. */
    const DeviceStats &stats() const { return stats_; }

    /** Reset statistics (geometry and wear untouched). */
    void resetStats() { stats_ = DeviceStats{}; }

    /** Same geometry, per-block wear, page/erase counts and stats. */
    bool operator==(const FlashDevice &) const = default;

  private:
    void checkRange(Bytes addr, Bytes len) const;

    /** Fold one access into the stats. */
    void
    account(bool is_write, Bytes len, SimTime t)
    {
        if (is_write) {
            ++stats_.writeOps;
            stats_.bytesWritten += len;
        } else {
            ++stats_.readOps;
            stats_.bytesRead += len;
        }
        stats_.busyTime += t;
        stats_.energy += energyOver(cfg_.activePower, t);
    }

    DeviceStats stats_;
    FlashConfig cfg_;
    std::vector<u64> eraseCounts_;
    u64 pagesRead_ = 0;
    u64 pagesProgrammed_ = 0;
    u64 blocksErased_ = 0;
};

} // namespace pc::nvm

#endif // PC_NVM_FLASH_DEVICE_H
