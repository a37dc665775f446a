/**
 * @file
 * Cache management / update protocol (Section 5.4, Figure 14).
 *
 * Periodically (nightly, while the phone charges) the device ships its
 * hash table to the server. The server prunes every community pair the
 * user never accessed, expires user pairs whose score decayed below a
 * threshold, merges in the freshly extracted popular set (conflicts
 * resolved by keeping the maximum score), and sends back a new hash
 * table plus patch files for the result database. The exchange should
 * stay under ~1.5 MB (the paper's 200 KB table + 1 MB records).
 */

#ifndef PC_CORE_CACHE_MANAGER_H
#define PC_CORE_CACHE_MANAGER_H

#include <unordered_map>
#include <vector>

#include "core/pocket_search.h"
#include "core/table_codec.h"
#include "logs/triplets.h"
#include "obs/metrics.h"

namespace pc::core {

/** Accounting of one update cycle. */
struct UpdateStats
{
    Bytes bytesToServer = 0; ///< Uploaded hash table size.
    Bytes bytesToPhone = 0;  ///< New table + patch records.
    std::size_t pairsKept = 0;    ///< User-accessed pairs retained.
    std::size_t pairsExpired = 0; ///< User pairs dropped (low score).
    std::size_t pairsPruned = 0;  ///< Untouched community pairs dropped.
    std::size_t pairsAdded = 0;   ///< Fresh popular pairs installed.
    std::size_t conflicts = 0;    ///< Pairs present on both sides.
    std::size_t recordsPatched = 0; ///< New DB records shipped.

    /**
     * Fold one cycle's accounting into a registry (bumps the
     * "core.update.*" counters, so successive cycles accumulate).
     */
    void publishMetrics(obs::MetricRegistry &reg) const;
};

/** Update policy knobs. */
struct UpdatePolicy
{
    /** Content selection for the fresh popular set. */
    ContentPolicy content{};
    /**
     * User pairs whose score decayed below this are expired (the
     * paper's "not accessed over the last 3 months" rule, expressed as
     * the score floor the exponential decay reaches).
     */
    double expiryScore = 0.05;
};

/**
 * Server side of the update protocol.
 *
 * The real server recognizes the hashes the phone uploads because it
 * can hash its own logs; the simulation mirrors that with a reverse map
 * from (query fnv, url hash) to universe pair ids.
 */
class CacheManager
{
  public:
    /** @param universe Shared popularity/world model. */
    explicit CacheManager(const QueryUniverse &universe);

    /**
     * Run one full update cycle against a device cache.
     *
     * @param ps Device cache to update in place.
     * @param fresh Triplet table of the latest log window.
     * @param policy Update policy.
     * @param[out] time Accumulates device-side flash patch latency.
     * @return Accounting of the cycle.
     */
    UpdateStats update(PocketSearch &ps, const logs::TripletTable &fresh,
                       const UpdatePolicy &policy, SimTime &time) const;

    /**
     * The server half of update(): upload, merge and the install list
     * the phone receives, in install order. update() clears the
     * device table and installs exactly this list. Fills every field
     * of `stats` except recordsPatched and the patch share of
     * bytesToPhone.
     */
    std::vector<InstallItem> planRebuild(const PocketSearch &ps,
                                         const logs::TripletTable &fresh,
                                         const UpdatePolicy &policy,
                                         UpdateStats &stats) const;

  private:
    /** Decode an uploaded table blob into universe pairs. */
    std::vector<InstallItem>
    parseUpload(const std::vector<WirePair> &wire) const;

    const QueryUniverse &universe_;
    /** (fnv1a(query) ^ urlHash(url)) -> pair, for hash matching. */
    std::unordered_map<u64, workload::PairRef> reverse_;
};

} // namespace pc::core

#endif // PC_CORE_CACHE_MANAGER_H
