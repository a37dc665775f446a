/**
 * @file
 * Community-model delta sync — the incremental half of the update
 * protocol (Section 5.4), hardened for real links.
 *
 * A CommunityDelta carries the add / evict / re-rank lists between two
 * versioned cache-content selections. The cloud update service
 * computes one with diffContents(); the device applies it with
 * tryApplyCommunityDelta(). A delta from version 0 is a *full
 * install*: the target contents in their entirety, applied with
 * reconcile semantics (stale community pairs the user never touched
 * are dropped, so a recovered device converges to exactly the target
 * model).
 *
 * Wire integrity: encodeDelta() is the canonical, deterministic byte
 * serialization (byte-equal encodings <=> identical deltas — the
 * sharded-build equality tests key on this). frameDelta() wraps the
 * encoding in a CRC-32 integrity frame (magic, length, payload,
 * checksum); unframeDelta() verifies length and checksum before
 * decoding, so a bit flipped in flight or a transfer torn at any byte
 * boundary is rejected instead of applied. CRC-32 detects all 1- and
 * 2-bit errors at these payload sizes; the threat model is link
 * corruption, not an adversary (see util/crc32.h).
 *
 * Apply integrity: tryApplyCommunityDelta() is transactional —
 * validate-then-commit. Every pair id is range-checked against the
 * universe and every evict/re-rank target must resolve in the device
 * table *before* any mutation; a delta that does not fit the device's
 * actual state is rejected whole, leaving PocketSearch untouched. The
 * commit phase only performs operations validation proved cannot
 * fail, so a crash mid-apply recovers through the PCS2 double-slot
 * snapshot into either the old or the new state, never a torn one.
 *
 * Personalization rules (the commit phase):
 *  - adds already cached merge by maximum score and keep the accessed
 *    flag, except that in a full install a cached pair the user never
 *    accessed takes the target's score, lower or higher;
 *  - evicts skip user-accessed pairs (the paper's retention rule);
 *  - re-ranks of accessed pairs only ratchet the score upward.
 */

#ifndef PC_CORE_DELTA_H
#define PC_CORE_DELTA_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache_content.h"
#include "core/pocket_search.h"

namespace pc::core {

/** Incremental update between two community-model versions. */
struct CommunityDelta
{
    u64 fromVersion = 0; ///< Base version; 0 = full install.
    u64 toVersion = 0;   ///< Target version.
    /** Pairs in `to` but not `from` (install with score). */
    std::vector<ScoredPair> adds;
    /** Pairs in `from` but not `to` (remove unless user-accessed). */
    std::vector<workload::PairRef> evicts;
    /** Pairs in both whose score changed (new score). */
    std::vector<ScoredPair> reranks;

    /** Total operation count. */
    std::size_t ops() const
    {
        return adds.size() + evicts.size() + reranks.size();
    }

    /** True if the delta carries no operations. */
    bool empty() const { return ops() == 0; }
};

/** Accounting of one delta application. */
struct DeltaApplyStats
{
    std::size_t added = 0;        ///< Pairs newly installed.
    std::size_t evicted = 0;      ///< Pairs removed by evict ops.
    std::size_t reranked = 0;     ///< Re-rank ops applied.
    std::size_t keptAccessed = 0; ///< Evictions skipped: user pairs.
    std::size_t conflicts = 0;    ///< Adds merged into existing pairs.
    std::size_t staleEvicted = 0; ///< Full-install reconcile removals.
    std::size_t recordsPatched = 0; ///< New flash records shipped.

    bool operator==(const DeltaApplyStats &) const = default;
};

/** Why a delta was rejected (device state left untouched). */
enum class DeltaApplyError
{
    None,
    BadPairId,           ///< A pair id is outside the universe.
    MissingEvictTarget,  ///< An evict names a pair the device lacks.
    MissingRerankTarget, ///< A re-rank names a pair the device lacks.
};

/** Outcome of a transactional delta application. */
struct DeltaApplyResult
{
    bool ok = false;
    DeltaApplyError error = DeltaApplyError::None;
    DeltaApplyStats stats{};
};

/**
 * Diff two content selections into a delta. Deterministic: add and
 * re-rank lists follow `to.pairs` order, the evict list follows
 * `from.pairs` order, so the same two selections always produce the
 * same (and byte-identically encodable) delta.
 */
CommunityDelta diffContents(const CacheContents &from,
                            const CacheContents &to, u64 from_version,
                            u64 to_version);

/**
 * Transactionally apply a delta to a device cache: validate every
 * operation against the live table, then commit all of them or none.
 *
 * @param ps Device cache.
 * @param delta The update (fromVersion 0 = full install; onto a
 *        non-empty cache it reconciles — see file comment).
 * @param[out] time Accumulates flash write latency (commit phase only;
 *        a rejected delta costs no flash time).
 * @return ok + stats, or the first validation error with zero stats.
 */
DeltaApplyResult tryApplyCommunityDelta(PocketSearch &ps,
                                        const CommunityDelta &delta,
                                        SimTime &time);

/**
 * Canonical payload serialization: fixed-width little-endian fields,
 * no map iteration anywhere. Byte-equal encodings <=> equal deltas.
 */
std::string encodeDelta(const CommunityDelta &delta);

/**
 * Decode an encodeDelta() payload. Rejects bad magic, truncated or
 * oversized payloads, and op counts inconsistent with the byte length
 * (checked before any allocation).
 */
std::optional<CommunityDelta> decodeDelta(std::string_view payload);

/** Bytes frameDelta() adds around the payload (header + checksum). */
inline constexpr Bytes kDeltaFrameOverhead = 12;

/**
 * Wrap an encoded delta in the integrity frame the radio actually
 * ships: magic, payload length, payload, CRC-32 of the payload.
 */
std::string frameDelta(const CommunityDelta &delta);

/** Which integrity check a received frame failed. */
enum class FrameError : u8
{
    None = 0,       ///< Frame verified and decoded.
    TooShort,       ///< Shorter than header + checksum.
    BadMagic,       ///< Frame magic mismatch.
    LengthMismatch, ///< Declared length != delivered bytes.
    BadChecksum,    ///< CRC-32 of the payload does not match.
    BadPayload,     ///< Checksum fine but the payload fails decode.
};

/** Display name of a frame error ("crc_bad_checksum", ...). */
const char *frameErrorName(FrameError e);

/**
 * Verify and decode one received frame. Any corruption — flipped bit,
 * truncation at any byte boundary, trailing garbage, length/checksum
 * mismatch — yields nullopt; a frame only decodes if it is exactly
 * what the sender framed. `*error` reports which check failed
 * (FrameError::None on success) so trace events can carry the cause
 * instead of a bare reject.
 */
std::optional<CommunityDelta> unframeDelta(std::string_view frame,
                                           FrameError *error);

/**
 * Modelled radio payload of one delta sync: the integrity frame plus
 * the result records shipped alongside the adds (the "patch files" of
 * Figure 14).
 */
Bytes deltaWireBytes(const CommunityDelta &delta,
                     const QueryUniverse &universe);

} // namespace pc::core

#endif // PC_CORE_DELTA_H
