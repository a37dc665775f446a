/**
 * @file
 * The custom flash database of search results (Figure 13 of the paper).
 *
 * Search results are stored once each (never per query — Section 5.2.1
 * found only 60% of cached results are unique, so per-query storage
 * would waste ~40%) in a small fixed set of plain files. A result lives
 * in file (urlHash mod numFiles); each file carries a header of
 * (hash, offset) pairs ahead of the record payloads. Retrieval opens the
 * file, parses the header, and reads the record at its offset.
 *
 * The file count trades retrieval time against flash fragmentation
 * (Figure 12): one file means a huge header to parse per lookup; many
 * files mean block-rounding waste. The paper lands on 32.
 */

#ifndef PC_CORE_RESULT_DB_H
#define PC_CORE_RESULT_DB_H

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "simfs/flash_store.h"
#include "store/engine.h"
#include "workload/universe.h"

namespace pc::core {

using workload::ResultInfo;

/** A materialized search-result record (what the browser renders). */
struct ResultRecord
{
    std::string title;       ///< Hyperlink text.
    std::string description; ///< Landing-page snippet.
    std::string url;         ///< Human-readable address.
};

/**
 * A fetched record's fields as views into the database's read buffer:
 * valid until that database's next fetch.
 */
struct RecordView
{
    std::string_view title;
    std::string_view description;
    std::string_view url;

    /** The fields copied out. */
    ResultRecord
    record() const
    {
        return {std::string(title), std::string(description),
                std::string(url)};
    }
};

/** Database shape and host-software timing. */
struct DbConfig
{
    u32 numFiles = 32;          ///< Paper's sweet spot (Figure 12).
    /** Per-read OS/file-system overhead (syscall, FAT translation). */
    SimTime perReadOverhead = 1200 * kMicrosecond;
    /** Header text parse cost per byte (2010-era phone CPU). */
    SimTime parsePerByte = 100;
    /** Fixed record deserialization cost. */
    SimTime recordParse = 100 * kMicrosecond;
    /**
     * Opt-in: back the database with the pc::store slab engine instead
     * of the paper's flat files. Lookups then pay an in-memory index
     * probe plus a (possibly cached) slot read instead of the
     * open + parse-the-whole-header sequence. Off by default so every
     * committed baseline keeps the paper's storage model.
     */
    bool useStoreEngine = false;
    /** Engine shape when useStoreEngine is set. */
    pc::store::StoreEngineConfig engine{};
};

/**
 * The on-flash search result database.
 */
class ResultDatabase
{
  public:
    /**
     * @param store Flash file store backing the database files. Must
     *        outlive the database. If the store already holds this
     *        prefix's files (flash survives power cycles), the database
     *        re-attaches to them and rebuilds its location map from the
     *        on-flash headers; otherwise fresh files are created.
     * @param cfg Shape/timing configuration.
     * @param prefix File name prefix (several cloudlets can share a
     *        store with distinct prefixes).
     */
    ResultDatabase(pc::simfs::FlashStore &store, const DbConfig &cfg = {},
                   std::string prefix = "psearch");

    /**
     * Clone `image` onto `store`, itself a clone of the image's store
     * (so file ids carry over): the location map is copied, nothing is
     * read or written. Flat-file mode only — the slab engine is not
     * cloned.
     */
    ResultDatabase(const ResultDatabase &image, pc::simfs::FlashStore &store);

    /**
     * Add a record keyed by urlHash(r.url); no-op if present.
     * @param[out] time Accumulates flash append latency.
     * @return True if newly added.
     */
    bool addRecord(const ResultInfo &r, SimTime &time);

    /** addRecord with the key already computed (key == urlHash(r.url)). */
    bool addRecord(const ResultInfo &r, u64 key, SimTime &time);

    /**
     * Overwrite the record keyed by urlHash(r.url) (server refreshed a
     * cached result). Falls back to addRecord when absent. Flat mode
     * appends the new copy and a superseding header line (last wins on
     * recovery); engine mode is a native out-of-place update.
     * @param[out] time Accumulates flash latency.
     * @return True if the record replaced an existing one.
     */
    bool updateRecord(const ResultInfo &r, SimTime &time);

    /** True if a record with this key exists. */
    bool contains(u64 url_hash) const;

    /**
     * Retrieve a record by key, modelling the full open + header parse +
     * record read sequence. The record is read into a buffer the
     * database owns and reuses, and its separators are checked in
     * place, so a warm fetch allocates nothing.
     * @param[out] out The record's fields, when found; they view the
     *        read buffer until the next fetch.
     * @param[out] time Accumulates the retrieval latency.
     * @return True if found and parsable. A flat-mode record a storage
     *         bit flip left unparsable returns false (engine mode
     *         verifies a CRC instead).
     */
    bool fetch(u64 url_hash, RecordView &out, SimTime &time);

    /**
     * Charge a fetch without reading the record out: the same latency,
     * simfs.* counts and storage bit-flip draws as fetch(), for callers
     * that discard the record (the serve path's probe). Engine mode
     * runs the full fetch, since its CRC check decides what is charged.
     * @param[out] time Accumulates the retrieval latency.
     */
    void chargeFetch(u64 url_hash, SimTime &time);

    /** Number of stored records. */
    std::size_t records() const
    {
        return engine_ ? std::size_t(engine_->items()) : locations_.size();
    }

    /** Sum of record payload bytes (headers excluded). */
    Bytes logicalBytes() const;

    /** Block-rounded bytes occupied by all database files. */
    Bytes physicalBytes() const;

    /** Database file index a key maps to. */
    u32 fileOf(u64 url_hash) const { return u32(url_hash % cfg_.numFiles); }

    /** Configuration. */
    const DbConfig &config() const { return cfg_; }

    /** Names of all database files. */
    std::vector<std::string> fileNames() const;

    /**
     * Both flat-file databases with the same shape, prefix, file ids
     * and location map (slot layout included). Engine-backed databases
     * never compare equal.
     */
    bool operator==(const ResultDatabase &other) const;

    /**
     * Take `installed`'s location map; flat mode only. The caller
     * adopts the store's files the same way (FlashStore::adoptState),
     * from a database that compared equal to this one before.
     */
    void adoptState(const ResultDatabase &installed);

    /** The slab engine, or nullptr in flat-file mode. */
    pc::store::StoreEngine *engine() { return engine_.get(); }
    const pc::store::StoreEngine *engine() const { return engine_.get(); }

  private:
    struct Location
    {
        u32 file;    ///< Database file index.
        Bytes offset; ///< Record offset within the data region.
        Bytes length; ///< Record length in bytes.

        bool operator==(const Location &) const = default;
    };

    /**
     * urlHash -> Location as one flat open-addressing array: key 0
     * marks an empty slot, the size is a power of two, probing is
     * linear and nothing is erased. A clone or adopt is one vector
     * copy, not one node per record.
     */
    class LocationMap
    {
      public:
        /** The key's location, or nullptr. Key 0 is never present. */
        const Location *find(u64 key) const;
        /** Insert or overwrite the key's location. @pre key != 0. */
        void assign(u64 key, const Location &loc);
        std::size_t size() const { return size_; }
        bool operator==(const LocationMap &) const = default;

      private:
        struct Slot
        {
            u64 key = 0; ///< 0 = empty.
            Location loc{};

            bool operator==(const Slot &) const = default;
        };

        /** The key's slot, or the empty slot ending its probe run. */
        std::size_t probe(u64 key) const;
        void grow();

        std::vector<Slot> slots_;
        std::size_t size_ = 0;
    };

    std::string dataFileName(u32 file) const;
    std::string indexFileName(u32 file) const;

    /** Rebuild locations_ from the on-flash headers (attach path). */
    void recoverLocations();

    /**
     * Serialize a record into the reused encode buffer.
     * @return A view of the buffer, valid until the next encode.
     */
    std::string_view encode(const ResultInfo &r);

    /**
     * Flat mode: append an encoded record to its data file, then its
     * (hash, offset, length) line to the file's header.
     * @return Where the record landed.
     */
    Location appendRecord(u64 key, std::string_view rec, SimTime &time);

    /**
     * Flat mode: charge the open, header parse and record read of one
     * fetch, copying the record into `*out` when `out` is non-null.
     */
    void readFlat(const Location &loc, std::string *out, SimTime &time);

    /** Split a record into its fields; false if a separator is lost. */
    static bool decode(std::string_view text, RecordView &out);

    pc::simfs::FlashStore &store_;
    DbConfig cfg_;
    std::string prefix_;
    std::vector<pc::simfs::FileId> dataFiles_;
    std::vector<pc::simfs::FileId> indexFiles_;
    LocationMap locations_;
    /** encode()'s output; reused so encoding does not allocate. */
    std::string encodeBuf_;
    /** fetch()'s read buffer; reused so a fetch does not allocate. */
    std::string readBuf_;
    std::unique_ptr<pc::store::StoreEngine> engine_;
};

static_assert(!std::is_copy_constructible_v<ResultDatabase>);

} // namespace pc::core

#endif // PC_CORE_RESULT_DB_H
