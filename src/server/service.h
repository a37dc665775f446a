/**
 * @file
 * CloudUpdateService — the cloud half of the update protocol.
 *
 * Owns the multi-threaded CommunityModelBuilder, a bounded history of
 * versioned community models, and the delta generator devices sync
 * against. One service instance stands in for the paper's server-side
 * log-analysis pipeline (Section 5.4): each call to ingest() turns one
 * log window into the next model version; each device sync computes
 * the add/evict/re-rank lists between the device's last-synced version
 * and the target version and ships them over a (faulty) radio link
 * with the device's own retry machinery.
 *
 * A device whose version fell off the bounded history — or that never
 * synced (version 0) — receives a full install: a delta from the empty
 * model, which tryApplyCommunityDelta handles identically.
 *
 * One update period serves a few distinct deltas, one per base version,
 * to many devices, so syncs take theirs from a cache keyed by (base,
 * target) that ingest() clears (servedDelta). tryMakeDelta/makeDelta
 * stay the uncached builder.
 *
 * The service keeps its own obs::MetricRegistry ("server.*": ingest
 * volume, queue depths, delta sizes and op counts, sync outcomes) so a
 * fleet run can fold cloud-side metrics into the same snapshot as the
 * devices' (FleetCollector::mergeCloud).
 */

#ifndef PC_SERVER_SERVICE_H
#define PC_SERVER_SERVICE_H

#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "core/delta.h"
#include "device/mobile_device.h"
#include "obs/metrics.h"
#include "server/builder.h"
#include "server/model.h"

namespace pc::server {

/** Service configuration. */
struct ServiceConfig
{
    /** Sharding/threading of the model builder. */
    BuildConfig build{};
    /** Content selection applied to every model version. */
    core::ContentPolicy policy{};
    /**
     * Model versions kept for delta generation. Devices older than the
     * window get a full install instead of a delta.
     */
    std::size_t maxVersions = 16;
    /**
     * Publish health.server.* busy-time/demand ledgers (obs/health.h)
     * from the service's deterministic op counts, using the modeled
     * per-op costs in obs/health.h — never the measured wall clocks,
     * which are banned from byte-gated artifacts. Off by default so
     * every committed baseline stays byte-identical.
     */
    bool healthAccounting = false;
};

/**
 * The cloud update service.
 */
class CloudUpdateService
{
  public:
    /** @param universe Shared world model (also the builder's). */
    explicit CloudUpdateService(const workload::QueryUniverse &universe,
                                const ServiceConfig &cfg = {});

    /**
     * Ingest one log window and publish the next model version
     * (1, 2, ...). The multi-threaded build is byte-identical
     * to a sequential build of the same log (see builder.h). Drops
     * every cached delta (servedDelta).
     * @return The freshly published model.
     */
    const CommunityModel &ingest(const workload::SearchLog &log);

    /** Latest published version; 0 before the first ingest. */
    u64 latestVersion() const { return latest_; }

    /** True if `version` is still in the history window. */
    bool
    hasVersion(u64 version) const
    {
        return history_.count(version) != 0;
    }

    /** Oldest version still in the history window; 0 before ingest. */
    u64
    oldestVersion() const
    {
        return history_.empty() ? 0 : history_.begin()->first;
    }

    /**
     * A model by version, or nullptr when the version is out of the
     * history window (evicted, never published, or 0). The clean
     * lookup path for anything driven by device-supplied versions.
     */
    const CommunityModel *findModel(u64 version) const;

    /** A model by version. @pre hasVersion(version). */
    const CommunityModel &model(u64 version) const;

    /** The latest model. @pre latestVersion() != 0. */
    const CommunityModel &latest() const { return model(latest_); }

    /**
     * Delta from `from_version` to `to_version` (0 = latest), or
     * nullopt when the *target* version is unavailable (off-window
     * request, or no model published yet) — a typed error instead of
     * a crashed pipeline on a bad device request. A from-version of 0
     * or one that fell off the history produces a full install (delta
     * against the empty model, fromVersion 0). Deterministic: the
     * same two versions always yield byte-identical deltas
     * (encodeDelta).
     */
    std::optional<core::CommunityDelta>
    tryMakeDelta(u64 from_version, u64 to_version = 0) const;

    /**
     * Asserting form of tryMakeDelta for callers that know the target
     * exists. @pre the target version is in the history window.
     */
    core::CommunityDelta makeDelta(u64 from_version,
                                   u64 to_version = 0) const;

    /**
     * The delta a sync from `from_version` to `to_version` (0 =
     * latest) is served: tryMakeDelta's, built on the first request
     * for its (base, target) and kept until the next ingest(). The
     * base is 0 when `from_version` is 0 or off the history window, so
     * the cache holds at most (window + 1) x window deltas whatever
     * versions devices claim. Safe to call concurrently (one mutex),
     * but not concurrently with ingest().
     * @return nullptr when the target version is unavailable; else a
     *         delta that stays valid until the next ingest().
     */
    const core::CommunityDelta *servedDelta(u64 from_version,
                                            u64 to_version = 0) const;

    /**
     * Sync one device to `target_version` (0 = latest) over `path`:
     * generate the delta against the device's current version, let the
     * device download and apply it (retry/backoff under its fault
     * plan), and account the outcome in the service metrics.
     */
    device::MobileDevice::CommunitySyncResult
    syncDevice(device::MobileDevice &dev, u64 target_version = 0,
               device::ServePath path = device::ServePath::ThreeG);

    /**
     * What one sync did, for deferred registry accounting. Captured by
     * syncDetached(), replayed by accountSync().
     */
    struct SyncAccounting
    {
        bool ok = false;         ///< Delta downloaded and applied.
        Bytes deltaBytes = 0;    ///< Downlink payload on success.
        std::size_t adds = 0;    ///< Delta op counts (success only).
        std::size_t evicts = 0;
        std::size_t reranks = 0;
        bool fullInstall = false; ///< Delta was a from-v0 install.
        bool shed = false;        ///< Fleet herd budget dropped the sync.
        bool noVersion = false;   ///< Target version off the window.
        bool rejected = false;    ///< Device rejected the delta (skew).
        bool escalated = false;   ///< Full install forced by a bad-delta
                                  ///< streak (device escalation).
        u32 corruptRetries = 0;   ///< Frames the device re-requested
                                  ///< after CRC failures.
    };

    /**
     * The read-only half of syncDevice(): fetch the delta
     * (servedDelta) and let the device download/apply it, but account
     * nothing — the outcome lands in `*acct` for a later accountSync().
     * Const and touches no service state but the locked delta cache,
     * so any number of workers may sync their (private) devices
     * concurrently, as long as no ingest() runs at the same time. The
     * parallel fleet harness uses this plus an index-ordered
     * accountSync() replay to keep the service registry byte-identical
     * to a sequential run.
     */
    device::MobileDevice::CommunitySyncResult
    syncDetached(device::MobileDevice &dev, SyncAccounting *acct,
                 u64 target_version = 0,
                 device::ServePath path = device::ServePath::ThreeG) const;

    /**
     * Fold one detached sync's outcome into the service metrics.
     * syncDevice() == syncDetached() + accountSync(); replaying
     * accountings in the order the sequential run would have produced
     * them reproduces the registry byte for byte (counter sums are
     * order-free; the delta-bytes histogram sees the same observation
     * sequence). Not thread-safe — call from the reducing thread only.
     */
    void accountSync(const SyncAccounting &acct);

    /** Cloud-side metrics ("server.*"). */
    obs::MetricRegistry &metrics() { return registry_; }
    /** Cloud-side metrics ("server.*"). */
    const obs::MetricRegistry &metrics() const { return registry_; }

    /** Configuration in use. */
    const ServiceConfig &config() const { return cfg_; }

  private:
    /** Fold one build's stats into the registry (single-threaded). */
    void publishBuildMetrics(const CommunityModel &m);

    const workload::QueryUniverse &universe_;
    ServiceConfig cfg_;
    CommunityModelBuilder builder_;
    /** version -> model; ordered so eviction drops the oldest. */
    std::map<u64, CommunityModel> history_;
    u64 latest_ = 0;
    /** servedDelta's (base, target) -> delta; ingest() clears it. */
    mutable std::map<std::pair<u64, u64>, core::CommunityDelta> deltas_;
    mutable std::mutex deltasMu_;
    obs::MetricRegistry registry_;
};

} // namespace pc::server

#endif // PC_SERVER_SERVICE_H
