/**
 * @file
 * pc::store — a KVell-style key-value engine over the flash model.
 *
 * The paper's PocketSearch keeps its result database as flat files
 * with a parse-the-whole-header lookup path (Section 5.2.2); this is
 * the next storage tier the ROADMAP names: fixed-size-class **slab
 * files** on simfs::FlashStore (inheriting all flash timing / energy /
 * wear accounting), an **in-memory hash index** (key → slot)
 * rebuilt by scanning slabs at attach, an LRU **page cache**
 * (store/page_cache.h) so hot reads never touch the device, a
 * **batched write queue** (store/io_queue.h) coalescing slot programs,
 * and **wear-aware GC** that relocates live items out of fragmented
 * slabs into the least-worn destination and erases the source.
 *
 * On-flash slot format (little-endian, 32-byte header + payload):
 *
 *     [magic u32][len u32][key u64][seq u64][crc u32][zero u32] payload
 *
 * `seq` is a store-wide monotonic write sequence; `crc` covers
 * (len, key, seq, payload). Updates are written out-of-place to a
 * fresh slot first, then the predecessor's header magic is zeroed
 * in-place (NAND-legal: programming only clears bits). There is no
 * delete: PocketSearch's result database only grows and updates.
 * Recovery scans every slab, keeps the highest-seq valid copy per key,
 * and treats everything else as free — so a torn update leaves the
 * previous acknowledged version intact, a torn kill leaves two valid
 * copies of which the newer wins, and a superseded version never comes
 * back. GC copies live slots verbatim (same seq): a crash mid-GC
 * recovers from whichever copy completed.
 *
 * Acknowledgement contract: a write is durable once flush() returns
 * with the attached FaultPlan (if any) not reporting powerLost(). The
 * crash property tests lean on exactly this.
 */

#ifndef PC_STORE_ENGINE_H
#define PC_STORE_ENGINE_H

#include <string>
#include <unordered_map>
#include <vector>

#include "simfs/flash_store.h"
#include "store/io_queue.h"
#include "store/page_cache.h"
#include "util/types.h"

namespace pc::store {

/** Where an item lives: slab id, slot within it, payload length. */
struct ItemLoc
{
    u32 slab = 0;  ///< Engine-wide slab id.
    u32 slot = 0;  ///< Slot index within the slab.
    u32 len = 0;   ///< Payload length in bytes (header excluded).
};

/** Engine shape. */
struct StoreEngineConfig
{
    /**
     * Slot sizes (header + payload capacity), ascending. An item goes
     * to the smallest class it fits; values larger than the biggest
     * class are rejected.
     */
    std::vector<Bytes> sizeClasses = {128, 256, 512, 1024, 2048, 4096};
    /** Slots per slab file. */
    u32 slotsPerSlab = 256;
    /** Page-cache geometry (capacityPages = 0 disables caching). */
    PageCacheConfig cache{};
    /** Write-queue auto-flush threshold (0 = unbatched). */
    u32 batchWindow = 8;
};

/** Garbage-collection counters. */
struct GcStats
{
    u64 collections = 0;    ///< Slabs collected.
    u64 relocated = 0;      ///< Live items moved out of collected slabs.
    u64 bytesMoved = 0;     ///< Payload bytes rewritten by relocation.
    u64 slabsReclaimed = 0; ///< Slab files erased and returned.
    u64 aborted = 0;        ///< Collections abandoned (power loss).
};

/** Operation counters. */
struct EngineStats
{
    u64 puts = 0;         ///< Fresh inserts.
    u64 updates = 0;      ///< Overwrites of an existing key.
    u64 gets = 0;         ///< Point lookups.
    u64 getHits = 0;      ///< Lookups that found the key.
    u64 crcRetries = 0;   ///< Reads retried after checksum mismatch.
    u64 readFailures = 0; ///< Reads abandoned after exhausting retries.
};

/**
 * The slab engine. One instance owns a name-prefixed family of slab
 * files inside a FlashStore; attaching to a store that already holds
 * the prefix's slabs recovers the index from the on-flash slots.
 */
class StoreEngine
{
  public:
    /**
     * @param store Backing flash file store (shared with other tenants
     *        under different prefixes). Must outlive the engine.
     * @param cfg Engine configuration; must match the configuration
     *        the prefix's existing slabs were written with.
     * @param prefix Slab file name prefix.
     */
    StoreEngine(pc::simfs::FlashStore &store,
                const StoreEngineConfig &cfg = {},
                std::string prefix = "kv");

    /**
     * Insert or overwrite `key`. The write is queued (see flush());
     * the index reflects it immediately.
     * @param[out] time Accumulates program latency (including any
     *        auto-flush or GC work this op triggered).
     * @return False if the value exceeds the largest size class or the
     *         attached fault plan reports power lost.
     */
    bool put(u64 key, std::string_view value, SimTime &time);

    /**
     * Point lookup. Drains the write queue first (read-your-writes),
     * charges the index probe plus either the cache-hit overhead or
     * the miss overhead + device reads, verifies the checksum (retrying
     * reads that a wear-induced bit flip corrupted), and returns the
     * payload.
     */
    bool get(u64 key, std::string &out, SimTime &time);

    /** True if `key` is present (index only; no time charged). */
    bool contains(u64 key) const;

    /** Drain the write queue. Durability point for queued writes. */
    void flush(SimTime &time);

    /** Live item count. */
    u64 items() const { return index_.size(); }

    /** Sum of live payload bytes. */
    Bytes logicalBytes() const { return liveBytes_; }

    /** Block-rounded flash bytes occupied by all slab files. */
    Bytes physicalBytes() const;

    /** Names of all live slab files (sorted). */
    std::vector<std::string> fileNames() const;

    /** Simulated time spent scanning slabs at attach. */
    SimTime recoveryTime() const { return recoveryTime_; }

    /** Operation counters. */
    const EngineStats &stats() const { return stats_; }

    /** GC counters. */
    const GcStats &gcStats() const { return gcStats_; }

    /** Page-cache statistics. */
    const PageCacheStats &cacheStats() const { return cache_.stats(); }

    /** Write-batching statistics. */
    const BatchStats &batchStats() const { return batch_.stats(); }

    /** Configuration. */
    const StoreEngineConfig &config() const { return cfg_; }

    /** Backing store. */
    pc::simfs::FlashStore &store() { return store_; }

    /** On-flash slot header size. */
    static constexpr Bytes kHeaderSize = 32;
    /**
     * Modelled cost of one index probe: a hash plus one cache-missy
     * bucket walk, inside the paper's 10 us DRAM hash-table budget
     * (Section 5.2.1).
     */
    static constexpr SimTime kProbeCost = 1200; // 1.2 us
    /** Modelled cost of serving a read entirely from cached pages. */
    static constexpr SimTime kHitOverhead = 2 * kMicrosecond;
    /** Modelled block-layer submission cost of a read that misses. */
    static constexpr SimTime kMissOverhead = 150 * kMicrosecond;
    /**
     * GC trigger: an update that leaves this fraction of a non-fill
     * slab's slots dead collects the slab.
     */
    static constexpr double kGcDeadFraction = 0.5;

  private:
    /** Slot lifecycle within a slab. */
    enum class SlotState : u8
    {
        Free, ///< Never written, or reclaimed by recovery.
        Live, ///< Holds the current version of some key.
        Dead, ///< Holds a killed/superseded version; GC fodder.
    };

    struct Slab
    {
        pc::simfs::FileId file = pc::simfs::kNoFile;
        u32 classIdx = 0;
        u32 nameSeq = 0; ///< Monotonic per-class file-name suffix.
        bool defunct = false;
        std::vector<SlotState> slots;
        u32 live = 0;
        u32 dead = 0;

        u32 freeSlots() const
        {
            return u32(slots.size()) - live - dead;
        }
    };

    /** Parsed slot header. */
    struct SlotHeader
    {
        u32 len = 0;
        u64 key = 0;
        u64 seq = 0;
        u32 crc = 0;
        bool valid = false; ///< Magic, length and checksum all check out.
        bool blank = false; ///< All-zero region (never-programmed slot).
    };

    Bytes slotSize(u32 classIdx) const { return cfg_.sizeClasses[classIdx]; }
    Bytes payloadCap(u32 classIdx) const
    {
        return slotSize(classIdx) - kHeaderSize;
    }
    Bytes slotOffset(const Slab &s, u32 slot) const
    {
        return Bytes(slot) * slotSize(s.classIdx);
    }

    /** Smallest class fitting `len` payload bytes, or class count. */
    u32 classFor(Bytes len) const;

    std::string slabFileName(u32 classIdx, u32 nameSeq) const;

    /** Encode a slot (header + payload). */
    static std::string encodeSlot(u64 key, u64 seq,
                                  std::string_view payload);
    /** Parse + verify a slot image (header + payload must be present). */
    static SlotHeader parseSlot(std::string_view bytes);

    /** Create a fresh slab for a class; returns its engine-wide id. */
    u32 newSlab(u32 classIdx);

    /** Slab to write into: the class's fill slab, growing as needed. */
    u32 fillSlab(u32 classIdx);

    /** Lowest reusable slot index of a slab. */
    u32 takeSlot(Slab &s);

    /**
     * GC destination: among the class's non-defunct slabs (excluding
     * `exclude`) with room, the one whose blocks are least worn; a
     * fresh slab otherwise.
     */
    u32 pickDestination(u32 classIdx, u32 exclude);

    /** Zero a slot's header magic (queued); bookkeeping to Dead. */
    void killSlot(const ItemLoc &loc, SimTime &time);

    /**
     * Read `kHeaderSize + len` bytes of a slot, verifying the
     * checksum; retries (bypassing and refreshing poisoned cache
     * pages) when a wear-induced bit flip corrupts the image. Returns
     * false after kMaxReadRetries failures.
     */
    bool readSlotVerified(const Slab &s, u32 slot, Bytes len,
                          bool useCache, std::string &slotBytes,
                          SimTime &time);

    /** Page-cache-fronted read of a slab-file byte range. */
    void readCached(const Slab &s, Bytes offset, Bytes len,
                    std::string &out, SimTime &time);

    /** Drop cached pages covering a flushed write range. */
    void invalidateRange(pc::simfs::FileId file, Bytes offset, Bytes len);

    /** Collect one slab: relocate live slots, erase the file. */
    bool collectSlab(u32 slabId, SimTime &time);

    /** Opportunistic GC check for one slab after a kill. */
    void maybeGc(u32 slabId, SimTime &time);

    /** Attach path: scan existing slab files, rebuild the index. */
    void recover();

    bool powerLost() const
    {
        return store_.faults() && store_.faults()->powerLost();
    }

    static constexpr u32 kMagic = 0x50435331; // "PCS1"
    static constexpr u32 kMaxReadRetries = 6;

    pc::simfs::FlashStore &store_;
    StoreEngineConfig cfg_;
    std::string prefix_;
    /** Key → location; rebuilt from slab scans at attach. */
    std::unordered_map<u64, ItemLoc> index_;
    PageCache cache_;
    WriteBatch batch_;
    std::vector<Slab> slabs_;
    /** Per class: slab ids in creation order (last = fill candidate). */
    std::vector<std::vector<u32>> classSlabs_;
    /** Per class: next file-name suffix. */
    std::vector<u32> nextNameSeq_;
    u64 lastSeq_ = 0;
    Bytes liveBytes_ = 0;
    SimTime recoveryTime_ = 0;
    EngineStats stats_;
    GcStats gcStats_;
};

} // namespace pc::store

#endif // PC_STORE_ENGINE_H
