/**
 * @file
 * Minimal flat-file store over the NAND flash timing model.
 *
 * PocketSearch keeps its custom database as plain files in flash
 * (Section 5.2.2 of the paper). This store provides exactly what that
 * database needs — named append-able byte files — while modelling the
 * two flash effects the paper's storage experiments hinge on:
 *
 *  - internal fragmentation: files are allocated in fixed-size blocks
 *    (2/4/8 KB in the paper), so a 500-byte record file wastes most of a
 *    block;
 *  - timed access: reads/writes pay the flash page latencies through the
 *    FlashDevice model, plus a per-open metadata overhead.
 *
 * File payload bytes are held in host memory; the flash device only
 * accounts time/energy/wear.
 */

#ifndef PC_SIMFS_FLASH_STORE_H
#define PC_SIMFS_FLASH_STORE_H

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fault/fault_plan.h"
#include "nvm/flash_device.h"
#include "obs/metrics.h"
#include "util/types.h"

namespace pc::simfs {

/** Opaque file identifier. */
using FileId = u32;

/** Invalid file id. */
inline constexpr FileId kNoFile = ~FileId(0);

/** Store configuration. */
struct StoreConfig
{
    /** Allocation unit ("block" in the paper's Section 5.2.2 sense). */
    Bytes allocUnit = 4 * kKiB;
    /** Fixed metadata cost of an open-by-name (directory lookup). */
    SimTime openOverhead = 2 * kMillisecond;
    /**
     * Wear levelling: when reusing freed blocks, pick the least-worn
     * candidate instead of the most recently freed one. Slightly more
     * allocator work, much flatter erase distribution.
     */
    bool wearLeveling = false;

    bool operator==(const StoreConfig &) const = default;
};

/** Aggregate space accounting for the store. */
struct StoreStats
{
    Bytes logicalBytes = 0;   ///< Sum of file contents.
    Bytes physicalBytes = 0;  ///< Block-rounded space consumed.
    u64 files = 0;            ///< Live file count.

    /** Wasted bytes due to block rounding. */
    Bytes internalWaste() const { return physicalBytes - logicalBytes; }
    /** Waste as a fraction of physical space; 0 when empty. */
    double wasteRatio() const;
};

/**
 * Flat, append-oriented file store on a FlashDevice.
 */
class FlashStore
{
  public:
    /**
     * @param device Flash device the store charges accesses to. Must
     *        outlive the store.
     * @param cfg Allocation/overhead configuration.
     */
    FlashStore(pc::nvm::FlashDevice &device, const StoreConfig &cfg = {});

    /**
     * Clone `image` onto `device`, itself a copy of the image's flash:
     * files, names, bytes, block lists and the allocator state are
     * copied, and the clone charges `device`. The image must have no
     * fault plan or metrics registry attached — observers and faults
     * attach after the clone.
     */
    FlashStore(const FlashStore &image, pc::nvm::FlashDevice &device);

    /** A plain copy would share the source's device; clone instead. */
    FlashStore(const FlashStore &) = delete;
    FlashStore &operator=(const FlashStore &) = delete;

    /**
     * Create an empty file.
     * @return The new file's id, or kNoFile if a live file already has
     *         this name (the existing file is untouched; the conflict is
     *         counted under "simfs.create_conflicts").
     */
    FileId create(const std::string &name);

    /**
     * Open a file by name, paying the metadata overhead.
     * @param[out] time Accumulates the open latency.
     * @return File id, or kNoFile if absent.
     */
    FileId open(const std::string &name, SimTime &time);

    /**
     * Reopen a file by an id cached from an earlier open or create:
     * the same overhead and "simfs.opens" count as open(), without the
     * directory lookup.
     * @param[out] time Accumulates the open latency.
     * @return True if the id refers to a live file.
     */
    bool reopen(FileId id, SimTime &time);

    /** Lookup without timing (for assertions/tests). */
    FileId lookup(const std::string &name) const;

    /** True if the id refers to a live file. */
    bool valid(FileId id) const;

    /**
     * Append bytes to a file, allocating blocks as needed.
     * @param[out] time Accumulates the flash program latency.
     */
    void append(FileId id, std::string_view data, SimTime &time);

    /**
     * Write bytes at an arbitrary offset (pwrite). Extends the file —
     * sparsely, zero-filled — when the range reaches past the current
     * end; only the written range is charged as programs (plus the
     * amortized erase of freshly allocated blocks). This is what a
     * slab-structured store needs: fixed slots rewritten in place
     * without rewriting the file. Honors the attached fault plan
     * exactly like append (power loss drops the write, an armed crash
     * may tear it).
     * @param[out] time Accumulates the flash program latency.
     */
    void writeAt(FileId id, Bytes offset, std::string_view data,
                 SimTime &time);

    /**
     * Read `len` bytes at `offset` into `out`, clamped to file size.
     * @param[out] time Accumulates the flash read latency.
     * @return Bytes actually read.
     */
    Bytes read(FileId id, Bytes offset, Bytes len, std::string &out,
               SimTime &time) const;

    /**
     * Charge a read without copying its bytes: the same time, device
     * page reads, "simfs.*" counts and fault-plan bit-flip draws as
     * read() over the same span (a flip lands in no buffer), for a
     * caller that only needs the read's cost and length.
     * @param[out] time Accumulates the flash read latency.
     * @return Bytes the read would return.
     */
    Bytes chargeRead(FileId id, Bytes offset, Bytes len,
                     SimTime &time) const;

    /**
     * Replace a file's entire contents (used when applying update
     * patches). Frees and reallocates blocks.
     * @param[out] time Accumulates erase + program latency.
     */
    void truncateAndWrite(FileId id, std::string_view data, SimTime &time);

    /**
     * Delete a file, returning its blocks to the free list and charging
     * the erase latency of every freed block — freed blocks must be
     * erased before reuse, exactly as truncateAndWrite charges them.
     * @param[out] time Accumulates the erase latency.
     */
    void remove(FileId id, SimTime &time);

    /**
     * Mean erase count of the device blocks backing a file's
     * allocation units; 0 for an empty file. The pc::store GC uses it
     * to relocate live data into the least-worn destination slab.
     */
    double avgWear(FileId id) const;

    /** Logical size of a file. */
    Bytes size(FileId id) const;

    /** Physical (block-rounded) size of a file. */
    Bytes physicalSize(FileId id) const;

    /** Store-wide space accounting. */
    StoreStats stats() const;

    /** Names of all live files (sorted). */
    std::vector<std::string> listFiles() const;

    /** A file's bytes, untimed (inspection/tests). */
    std::string_view contents(FileId id) const { return fileAt(id).data; }

    /** A file's allocated block indices, in order (inspection/tests). */
    const std::vector<u64> &blocks(FileId id) const
    {
        return fileAt(id).blocks;
    }

    /** The underlying flash device. */
    pc::nvm::FlashDevice &device() { return device_; }

    /**
     * True if this store holds exactly `other`'s state: configuration,
     * files (names, bytes, block lists, liveness), the name map and the
     * allocator. The device binding, fault plan and metrics are not
     * part of the state.
     */
    bool sameState(const FlashStore &other) const;

    /**
     * Take `installed`'s files and allocator state, keeping this
     * store's device binding, fault plan and metrics, and bump each
     * attached "simfs.*" counter by the same-named counter of
     * `counts`. When this store held what `installed` started from,
     * `counts` holds the counts of the operations that took
     * `installed` to its state, and the caller copies the flash device
     * likewise, the result is the state, counts and wear those
     * operations would have left here.
     */
    void adoptState(const FlashStore &installed,
                    const obs::MetricRegistry &counts);

    /** Configuration. */
    const StoreConfig &config() const { return cfg_; }

    /**
     * Attach a fault plan: programs become crash-able (power loss may
     * tear a write mid-file) and reads of worn blocks may suffer bit
     * flips. nullptr detaches.
     */
    void attachFaults(pc::fault::FaultPlan *faults) { faults_ = faults; }

    /** The attached fault plan (may be nullptr). */
    pc::fault::FaultPlan *faults() const { return faults_; }

    /**
     * Register store counters under "simfs.*" (creates, opens, reads,
     * writes, truncates, removes, bytes_read, bytes_written), bumped
     * per operation, plus create_conflicts (duplicate-name creates,
     * which otherwise vanish silently as kNoFile) and per-op latency
     * accumulators (read_ns, write_ns, truncate_ns, remove_ns — total
     * simulated nanoseconds charged per op class, so cache-hit savings
     * in pc::store show up in fleet snapshots through the
     * FleetCollector fold). nullptr detaches.
     */
    void attachMetrics(obs::MetricRegistry *reg);

  private:
    struct File
    {
        std::string name;
        std::string data;
        std::vector<u64> blocks; ///< Allocated block indices, in order.
        bool live = false;

        bool operator==(const File &) const = default;
    };

    const File &fileAt(FileId id) const;
    File &fileAt(FileId id);

    /** Allocate one block; grows toward capacity, reuses freed blocks. */
    u64 allocBlock();

    /** Ensure the file owns enough blocks for `size` bytes. */
    void reserve(File &f, Bytes size, SimTime &time, bool charge_program);

    /** Flash byte address of a file offset. */
    Bytes flashAddr(const File &f, Bytes offset) const;

    /**
     * read() and chargeRead(): charge the span and, when `out` is
     * non-null, copy it there (where bit flips land).
     */
    Bytes readSpan(FileId id, Bytes offset, Bytes len, std::string *out,
                   SimTime &time) const;

    /** Cached metric handles (null when no registry is attached). */
    struct Metrics
    {
        obs::Counter *creates = nullptr;
        obs::Counter *opens = nullptr;
        obs::Counter *reads = nullptr;
        obs::Counter *writes = nullptr;
        obs::Counter *truncates = nullptr;
        obs::Counter *removes = nullptr;
        obs::Counter *bytesRead = nullptr;
        obs::Counter *bytesWritten = nullptr;
        obs::Counter *createConflicts = nullptr;
        obs::Counter *readNs = nullptr;
        obs::Counter *writeNs = nullptr;
        obs::Counter *truncateNs = nullptr;
        obs::Counter *removeNs = nullptr;
    };

    pc::nvm::FlashDevice &device_;
    StoreConfig cfg_;
    pc::fault::FaultPlan *faults_ = nullptr;
    Metrics metrics_;
    std::vector<File> files_;
    std::map<std::string, FileId> byName_;
    std::vector<u64> freeBlocks_;
    u64 nextBlock_ = 0;
};

static_assert(!std::is_copy_constructible_v<FlashStore>);

} // namespace pc::simfs

#endif // PC_SIMFS_FLASH_STORE_H
