/**
 * @file
 * Byte-addressable memory device models: DRAM and PCM.
 *
 * These back the paper's Section 3.3 three-tier discussion: indexes live
 * in DRAM today; a PCM tier would make them persistent and instantly
 * available at boot (no index reload from NAND), at some access-latency
 * cost. Both model a read as a fixed per-access latency plus a per-byte
 * stream term.
 */

#ifndef PC_NVM_BYTE_DEVICE_H
#define PC_NVM_BYTE_DEVICE_H

#include <string>

#include "nvm/storage_device.h"

namespace pc::nvm {

/** Read timing/energy of a byte-addressable tier. */
struct ByteDeviceConfig
{
    std::string name = "dram";
    Bytes capacity = 512 * kMiB;
    SimTime readAccessLatency = 50;   ///< ns, first-word latency.
    SimTime perByte = 0;              ///< ns per streamed byte (0 => 10GB/s+).
    MilliWatts activePower = 100.0;
    bool nonVolatile = false;         ///< Survives power cycles?
};

/** DRAM-like defaults. */
ByteDeviceConfig dramConfig(Bytes capacity = 512 * kMiB);

/**
 * PCM-like defaults: non-volatile, ~3x slower reads than DRAM, but
 * vastly faster than NAND and byte-addressable.
 */
ByteDeviceConfig pcmConfig(Bytes capacity = 4 * kGiB);

/**
 * Byte-addressable device with uniform access timing.
 */
class ByteDevice : public StorageDevice
{
  public:
    explicit ByteDevice(const ByteDeviceConfig &cfg);

    /** Device display name. */
    std::string name() const { return cfg_.name; }
    /** Usable capacity. */
    Bytes capacity() const { return cfg_.capacity; }

    /** Model a read of `len` bytes at `addr`; returns its latency. */
    SimTime read(Bytes addr, Bytes len);

    /** Whether contents survive a power cycle. */
    bool nonVolatile() const { return cfg_.nonVolatile; }

    /** Configuration. */
    const ByteDeviceConfig &config() const { return cfg_; }

  private:
    ByteDeviceConfig cfg_;
};

} // namespace pc::nvm

#endif // PC_NVM_BYTE_DEVICE_H
