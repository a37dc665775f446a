/**
 * @file
 * Shared statistics of the timed storage/memory device models.
 *
 * Devices do not hold payload bytes — file contents live in the simfs
 * layer — they model *timing, energy and geometry* of accesses, which is
 * what the paper's storage-architecture experiments (Figure 12, Table 4)
 * depend on.
 */

#ifndef PC_NVM_STORAGE_DEVICE_H
#define PC_NVM_STORAGE_DEVICE_H

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

/**
 * Access accounting shared by the timed device models. Each model
 * (FlashDevice, ByteDevice) provides `name()`, `capacity()` and
 * `read(addr, len)` / `write(addr, len)`, which return the simulated
 * latency of the access and fold it in through account(). Callers hold
 * the concrete type; nothing dispatches through this base.
 */
class StorageDevice
{
  public:
    /** Cumulative statistics. */
    const DeviceStats &stats() const { return stats_; }

    /** Reset statistics (capacity/contents untouched). */
    void resetStats() { stats_ = DeviceStats{}; }

    bool operator==(const StorageDevice &) const = default;

  protected:
    /** Fold one access into the stats. */
    void
    account(bool is_write, Bytes len, SimTime t, MilliWatts power)
    {
        if (is_write) {
            ++stats_.writeOps;
            stats_.bytesWritten += len;
        } else {
            ++stats_.readOps;
            stats_.bytesRead += len;
        }
        stats_.busyTime += t;
        stats_.energy += energyOver(power, t);
    }

    DeviceStats stats_;
};

} // namespace pc::nvm

#endif // PC_NVM_STORAGE_DEVICE_H
