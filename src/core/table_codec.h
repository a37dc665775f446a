/**
 * @file
 * Wire format for the hash-table exchange of the update protocol
 * (Figure 14).
 *
 * The phone uploads its hash table to the server every night; the
 * server parses it by re-hashing its own logs. This codec is the
 * actual byte format of that exchange: a fixed header plus one
 * fixed-width record per cached (query, result) pair — query hash,
 * result hash, ranking score, and the user-accessed flag bit the
 * server's pruning step keys on.
 */

#ifndef PC_CORE_TABLE_CODEC_H
#define PC_CORE_TABLE_CODEC_H

#include <optional>
#include <string>
#include <vector>

#include "core/hash_table.h"

namespace pc::core {

/** One decoded wire record. */
struct WirePair
{
    u64 queryFnv = 0;  ///< fnv1a of the query string.
    u64 urlHash = 0;   ///< Result record key.
    double score = 0;  ///< Current ranking score.
    bool accessed = false; ///< User ever clicked this pair.

    bool operator==(const WirePair &o) const = default;
};

/** The wire record of one cached (query, result) entry. */
inline WirePair
toWirePair(u64 query_fnv, const ResultRef &r)
{
    return {query_fnv, r.urlHash, r.score, r.userAccessed};
}

/** Append one fixed-width wire record (the upload blob's record body). */
void appendWireRecord(std::string &out, const WirePair &w);

/** Encode a hash table into the upload blob. */
std::string encodeTable(const QueryHashTable &table);

/**
 * Decode an upload blob.
 * @return The records, or std::nullopt on a malformed blob (bad magic,
 *         truncated payload, or length mismatch).
 */
std::optional<std::vector<WirePair>> decodeTable(std::string_view blob);

/** Exact wire size of a table with `pairs` cached pairs. */
Bytes wireSize(std::size_t pairs);

} // namespace pc::core

#endif // PC_CORE_TABLE_CODEC_H
