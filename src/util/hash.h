/**
 * @file
 * Deterministic 64-bit hashing used for query strings and result URLs.
 *
 * PocketSearch identifies queries and search results by 64-bit hashes
 * (Figure 10 of the paper): the hash table keys entries by
 * hash(query, slot) and points at results by hash(url). Determinism across
 * runs and platforms matters because hashes are persisted in the simulated
 * flash database files and exchanged with the (simulated) server during
 * cache updates.
 */

#ifndef PC_UTIL_HASH_H
#define PC_UTIL_HASH_H

#include <string_view>

#include "util/types.h"

namespace pc {

/** FNV-1a 64-bit offset basis. */
inline constexpr u64 kFnvOffset = 14695981039346656037ull;
/** FNV-1a 64-bit prime. */
inline constexpr u64 kFnvPrime = 1099511628211ull;

/**
 * FNV-1a hash of a byte string.
 *
 * @param data Bytes to hash.
 * @param seed Starting state; chain calls to hash multiple fields.
 * @return 64-bit hash value.
 */
constexpr u64
fnv1a(std::string_view data, u64 seed = kFnvOffset)
{
    u64 h = seed;
    for (char c : data) {
        h ^= u64(u8(c));
        h *= kFnvPrime;
    }
    return h;
}

/** Finalizer from SplitMix64; decorrelates consecutive integer keys. */
constexpr u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * queryHash(query, slot) from an already computed fnv1a(query), so a
 * chain walk hashes the query string once rather than once per slot.
 */
constexpr u64
querySlotKey(u64 query_fnv, u32 slot)
{
    return mix64(query_fnv ^ (u64(slot) << 1));
}

/**
 * Hash of a query string for hash-table placement.
 *
 * @param query The raw query string as typed by the user.
 * @param slot Secondary argument: entry index when a query owns more than
 *             one hash-table entry (more than two search results). This is
 *             the "second argument of the hash function" of Section 5.2.1.
 */
constexpr u64
queryHash(std::string_view query, u32 slot = 0)
{
    return querySlotKey(fnv1a(query), slot);
}

/** Hash of a search-result URL; doubles as the database record key. */
constexpr u64
urlHash(std::string_view url)
{
    return mix64(fnv1a(url));
}

/** Combine two hashes (boost-style). */
constexpr u64
hashCombine(u64 a, u64 b)
{
    return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}

} // namespace pc

#endif // PC_UTIL_HASH_H
