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
#include <type_traits>
#include <unordered_map>
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
     * record read sequence.
     * @param[out] out The record, when found.
     * @param[out] time Accumulates the retrieval latency.
     * @return True if found and parsable. A flat-mode record a storage
     *         bit flip left unparsable returns false (engine mode
     *         verifies a CRC instead).
     */
    bool fetch(u64 url_hash, ResultRecord &out, SimTime &time) const;

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

    /** The slab engine, or nullptr in flat-file mode. */
    pc::store::StoreEngine *engine() { return engine_.get(); }
    const pc::store::StoreEngine *engine() const { return engine_.get(); }

  private:
    struct Location
    {
        u32 file;    ///< Database file index.
        Bytes offset; ///< Record offset within the data region.
        Bytes length; ///< Record length in bytes.
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

    /** Deserialize a record. */
    static bool decode(std::string_view text, ResultRecord &out);

    pc::simfs::FlashStore &store_;
    DbConfig cfg_;
    std::string prefix_;
    std::vector<pc::simfs::FileId> dataFiles_;
    std::vector<pc::simfs::FileId> indexFiles_;
    std::unordered_map<u64, Location> locations_;
    /** encode()'s output; reused so encoding does not allocate. */
    std::string encodeBuf_;
    std::unique_ptr<pc::store::StoreEngine> engine_;
};

static_assert(!std::is_copy_constructible_v<ResultDatabase>);

} // namespace pc::core

#endif // PC_CORE_RESULT_DB_H
