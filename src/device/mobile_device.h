/**
 * @file
 * The simulated smartphone: flash + file store + PocketSearch + radios +
 * browser, with end-to-end latency and energy accounting.
 *
 * This is the measurement platform standing in for the paper's Sony
 * Ericsson Xperia X1a (Windows Mobile 6.1, AT&T): it reproduces the
 * serve-a-query pipeline of Section 6.1 — cache probe, local fetch and
 * render on a hit; radio exchange and render on a miss — and produces
 * the per-query latency (Figure 15a), energy (Figure 15b), breakdown
 * (Table 4), navigation times (Table 5), and power traces (Figure 16).
 */

#ifndef PC_DEVICE_MOBILE_DEVICE_H
#define PC_DEVICE_MOBILE_DEVICE_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/delta.h"
#include "core/pocket_search.h"
#include "device/browser.h"
#include "fault/faulty_link.h"
#include "obs/events.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "radio/link.h"

namespace pc::device {

using core::CacheMode;
using core::PocketSearch;
using core::PocketSearchConfig;
using radio::PowerSegment;

/** Which path a query is served through. */
enum class ServePath
{
    PocketSearch, ///< Cache first; radio fallback on miss.
    ThreeG,       ///< Always over 3G.
    Edge,         ///< Always over EDGE.
    Wifi,         ///< Always over 802.11g.
};

/** Display name of a serve path. */
const char *servePathName(ServePath p);

/** Metric-name-safe key of a serve path ("pocket", "3g", ...). */
std::string servePathKey(ServePath p);

/**
 * How the device retries failed radio exchanges (bounded retries,
 * exponential backoff with jitter, per-operation time budget). Query
 * misses and community syncs share one attempt loop and so one policy;
 * the miss-queue drain makes a single attempt per queued miss. With no
 * fault plan attached the first attempt always succeeds and none of
 * this machinery engages.
 */
struct RetryPolicy
{
    /** Total exchange attempts per operation (1 = no retry). */
    u32 maxAttempts = 4;
    /** Backoff before the first retry. */
    SimTime baseBackoff = fromMillis(400);
    /** Backoff growth per retry (exponential). */
    double backoffFactor = 2.0;
    /** Backoff ceiling. */
    SimTime maxBackoff = 5 * kSecond;
    /**
     * Multiplicative jitter (+-fraction) on each backoff. A jittered
     * backoff below zero (jitter above 1) waits zero.
     */
    double jitter = 0.25;
    /** Give up once an operation has burned this much sim time. */
    SimTime queryBudget = 45 * kSecond;
};

/** Device-level constants. */
struct DeviceConfig
{
    /** Base platform power while the user is interacting (screen+CPU). */
    MilliWatts basePower = 550.0;
    /** Flash capacity dedicated to cloudlets. */
    Bytes flashCapacity = 1 * kGiB;
    /** Search request payload (query + headers). */
    Bytes requestBytes = 1 * kKiB;
    /** Community-sync request payload (device id + version). */
    Bytes syncRequestBytes = 256;
    /** Search response payload (results page). */
    Bytes responseBytes = 100 * kKiB;
    /** Server-side processing time per query. */
    SimTime serverTime = fromMillis(250);
    BrowserConfig browser{};
    pc::simfs::StoreConfig store{};
    pc::nvm::FlashConfig flash{};
    RetryPolicy retry{};
};

/** Resilience counters: what the device did about injected faults. */
struct ResilienceStats
{
    u64 radioAttempts = 0;     ///< Exchange attempts started.
    u64 retries = 0;           ///< Attempts beyond an operation's first.
    u64 noCoverageAttempts = 0; ///< Attempts begun inside an outage.
    u64 failedAttempts = 0;    ///< Attempts killed mid-exchange.
    u64 latencySpikes = 0;     ///< Successful but congested exchanges.
    u64 degradedServes = 0;    ///< Queries answered locally because the
                               ///< cloud stayed unreachable.
    u64 staleServes = 0;       ///< Degraded answers with cached results.
    u64 offlinePages = 0;      ///< Degraded answers with nothing cached.
    u64 queuedMisses = 0;      ///< Misses queued for later sync.
    u64 syncedMisses = 0;      ///< Queued misses later fetched.
    u64 corruptDeltas = 0;     ///< Delta frames failing the CRC check.
    u64 rejectedDeltas = 0;    ///< Verified deltas failing validation.

    bool operator==(const ResilienceStats &) const = default;
};

/** Everything measured about one served query. */
struct QueryOutcome
{
    bool cacheHit = false;
    SimTime latency = 0;        ///< Submit -> results page rendered.
    MicroJoules energy = 0;     ///< Whole-device energy for the query.
    SimTime hashLookupTime = 0; ///< Cache probe time.
    SimTime fetchTime = 0;      ///< Flash retrieval time (hits).
    SimTime radioTime = 0;      ///< Radio exchange time (misses).
    SimTime renderTime = 0;     ///< Browser render time.
    SimTime miscTime = 0;       ///< App overhead.
    SimTime backoffTime = 0;    ///< Time spent waiting between retries.
    u32 attempts = 0;           ///< Radio attempts made (0 on cache hit).
    /**
     * The cloud stayed unreachable, so the query was answered locally
     * (stale cached results or an offline page) and the miss queued.
     * Never an error: degradation is the failure mode the caller sees.
     */
    bool degraded = false;
    /** Degraded answer carried cached (possibly stale) results. */
    bool staleServe = false;
    /** Whole-device power timeline (base + radio), for Figure 16. */
    std::vector<PowerSegment> trace;

    bool operator==(const QueryOutcome &) const = default;
};

class InstallImage;

/**
 * The simulated phone.
 */
class MobileDevice
{
  public:
    /**
     * @param universe World model for PocketSearch.
     * @param cfg Device constants.
     * @param ps_cfg PocketSearch configuration.
     */
    MobileDevice(const core::QueryUniverse &universe,
                 const DeviceConfig &cfg = {},
                 const PocketSearchConfig &ps_cfg = {});

    /**
     * Clone an image device — typically one whose only history is
     * installCommunityCache — for a fleet that would otherwise install
     * the same contents on every phone. Flash (wear, erase counts,
     * stats), store (file bytes, block lists) and PocketSearch are
     * value-copied and rebound to the clone; the device clock, model
     * version and resilience state are copied too. Radios and browser
     * start fresh. Observers and faults attach after the clone: the
     * image must have no registry, no event-stream consumer (tracer,
     * flight recorder, health accountant), no fault plan and no
     * slab-engine database; the clone's event stream starts empty.
     * Cloning only reads the image, so workers may clone one shared
     * image concurrently.
     */
    explicit MobileDevice(const MobileDevice &image);
    MobileDevice &operator=(const MobileDevice &) = delete;

    /**
     * Install community cache contents (the overnight push).
     * @return Flash write time of the push.
     */
    SimTime installCommunityCache(const core::CacheContents &contents);

    /**
     * Serve one query end to end.
     *
     * @param pair The (query, clicked result) intent being replayed.
     * @param path Serving policy.
     * @param record_click Whether to feed the click back into
     *        personalization (hit-rate experiments do; latency
     *        microbenchmarks usually don't).
     */
    QueryOutcome serveQuery(const workload::PairRef &pair, ServePath path,
                            bool record_click = true);

    /**
     * Navigation latency: query serving plus landing-page load
     * (Table 5). The landing page always loads over 3G.
     */
    SimTime navigationLatency(const QueryOutcome &q, PageWeight w) const;

    /** The cache. */
    PocketSearch &pocketSearch() { return *ps_; }
    /** The cache. */
    const PocketSearch &pocketSearch() const { return *ps_; }

    /** A radio by path (must not be PocketSearch). */
    radio::RadioLink &link(ServePath p);

    /**
     * Attach a fault plan: radio exchanges become fallible (the retry
     * policy engages) and the flash store becomes crash-able/bit-rotten.
     * nullptr detaches and restores perfect-hardware behaviour.
     */
    void attachFaults(fault::FaultPlan *plan);

    /** The attached fault plan (may be nullptr). */
    fault::FaultPlan *faults() const { return faults_; }

    /**
     * Attach a metrics registry: the device registers its counters
     * ("device.queries", "device.radio.attempts", ...), per-path
     * latency/energy histograms ("device.latency_ms.<path>"), and
     * wires the store ("simfs.*") into the same registry. The counts
     * its layers keep themselves — ResilienceStats, PocketSearch's
     * ServeStats ("core.search.*") and every radio link's totals
     * ("device.radio.<link>.*") — are mirrored into the registry at
     * the exit of each serveQuery, syncCommunityUpdate and
     * syncMissQueue; counts made before the attach stay uncounted.
     * nullptr detaches everything.
     */
    void attachMetrics(obs::MetricRegistry *reg);

    /**
     * The device's one event stream (obs/events.h). Each fact of the
     * pipeline is emitted once — component spans, the query end, every
     * community-sync stage, each miss drain — and the attached
     * consumers below are its views. The cloud service emits its
     * server-tier sync stages here too, so one sync is one chain.
     */
    const obs::DeviceEvents &events() const { return events_; }

    /**
     * Attach a tracer, the Chrome view of the stream: every served
     * query records spans on the track named `track_label` — an
     * umbrella span (category "query") plus component spans (category
     * "device": probe, fetch, radio attempts, backoffs, render, ...)
     * whose durations sum exactly to the query's end-to-end latency.
     * nullptr detaches.
     */
    void attachTracer(obs::Tracer *tracer,
                      const std::string &track_label = "device");

    /**
     * Attach a flight recorder, the sync-chain view of the stream:
     * every community sync records typed causal events (obs/causal.h)
     * covering both tiers of the pipeline. nullptr detaches; a
     * detached stream costs one any-consumer test per emit — no
     * allocation, no RNG draw, no behaviour change
     * (bench_trace_overhead gates this).
     */
    void attachFlightRecorder(obs::FlightRecorder *rec)
    {
        events_.recorder = rec;
    }

    /**
     * Attach a health accountant (obs/health.h), the ledger view of the
     * stream: every span, query end, sync stage and miss drain folds
     * into the busy-time/demand ledgers, and each radio link's busy
     * time and committed exchanges are mirrored into its per-link
     * ledger at each operation's exit. nullptr detaches. Same cost
     * contract as the flight recorder: attached is cached-counter adds
     * — zero allocations, zero RNG draws, zero behaviour change
     * (health_test gates this).
     */
    void attachHealth(obs::health::HealthAccountant *acct);

    /** What the device did about injected faults. */
    const ResilienceStats &resilience() const { return resilience_; }

    /** Misses queued while the cloud was unreachable (oldest first). */
    const std::vector<workload::PairRef> &missQueue() const
    {
        return missQueue_;
    }

    /** Outcome of a miss-queue sync pass. */
    struct SyncResult
    {
        u64 synced = 0;        ///< Queued misses fetched and learned.
        u64 remaining = 0;     ///< Still queued (connectivity died again).
        SimTime time = 0;      ///< Radio time spent syncing.
        MicroJoules energy = 0; ///< Radio energy spent syncing.
    };

    /**
     * Drain the offline miss queue over the given radio path: fetch
     * each queued miss (one attempt, no retry) and feed it to
     * personalization, stopping at the first failed attempt. Call when
     * coverage returns.
     */
    SyncResult syncMissQueue(ServePath path = ServePath::ThreeG);

    /** Everything measured about one community-model sync. */
    struct CommunitySyncResult
    {
        bool ok = false;     ///< Delta downloaded and applied.
        u64 fromVersion = 0; ///< Device model version before the sync.
        u64 toVersion = 0;   ///< Version after (== from on failure).
        u32 attempts = 0;    ///< Radio attempts made.
        Bytes deltaBytes = 0;  ///< Downlink payload (delta wire size).
        SimTime time = 0;      ///< Radio + apply time.
        SimTime backoffTime = 0; ///< Wait between retry attempts.
        MicroJoules energy = 0; ///< Radio energy spent.
        u32 corruptRejected = 0; ///< Frames rejected by the CRC check.
        /** The verified delta failed validation (state mismatch). */
        bool rejected = false;
        /** Why validation rejected it (None unless `rejected`). */
        core::DeltaApplyError applyError = core::DeltaApplyError::None;
        core::DeltaApplyStats apply{}; ///< Application accounting.

        bool operator==(const CommunitySyncResult &) const = default;
    };

    /**
     * Download and apply one community-model delta over a radio path —
     * the device's one community-sync entry point. The delta travels
     * as a CRC-32 integrity frame (core::frameDelta) sized for the
     * radio by core::deltaWireBytes (frame plus patched flash
     * records). Every attempt runs through the same retry loop, policy
     * and fault plan as a query miss, and each delivery may have a bit
     * flipped in flight (FaultPlan::maybeCorruptPayload). A frame that
     * fails the CRC-32 check is counted, dropped and re-requested under
     * the standard backoff — corrupt bytes never reach the cache. A
     * frame that verifies but whose delta fails transactional
     * validation (version skew: the device's table is not the state the
     * delta was diffed against) is rejected whole with `rejected` set
     * and no retry, since re-downloading the same mismatch cannot help.
     *
     * On success the delta is applied to PocketSearch (core/delta.h
     * rules) and the community version advances to delta.toVersion; on
     * failure the cache and version are untouched and the service can
     * retry next sync window. A corrupt-defeated or rejected sync
     * advances the bad-delta streak; after kBadDeltaEscalation in a row
     * needsFullInstall() turns true and the service falls back to a
     * full install, which resets the streak when it lands.
     */
    CommunitySyncResult
    syncCommunityUpdate(const core::CommunityDelta &delta,
                        ServePath path = ServePath::ThreeG);

    /**
     * Attach a prepared full install (InstallImage) for first contact.
     * A sync whose verified frame is byte-equal to the image's, onto a
     * device whose cache layers still equal the image's starting state
     * (hash table, result database, auto-suggest, store files and
     * allocator, flash wear and counters) and whose store has no armed
     * or fired crash, copies the image's result into this device's own
     * objects instead of running the apply. The copy leaves the state,
     * apply time, DeltaApplyStats and "simfs.*" counts the apply would
     * have left, and the radio exchange, frame check and events are
     * those of any sync. Every other sync applies as before. nullptr
     * detaches. The image must outlive the attachment; any number of
     * devices, on any threads, may share one.
     */
    void attachInstallImage(const InstallImage *image)
    {
        installImage_ = image;
    }

    /**
     * Syncs that copied the attached install image instead of running
     * the apply. Host work only: the simulated sync is the same.
     */
    u64 installsAdopted() const { return installsAdopted_; }

    /** Consecutive bad syncs before escalating to a full install. */
    static constexpr u32 kBadDeltaEscalation = 3;

    /**
     * True once kBadDeltaEscalation consecutive syncs ended in a
     * corrupt or rejected delta: incremental updates are not landing,
     * so the next sync should be a full install (fromVersion 0).
     */
    bool needsFullInstall() const
    {
        return badDeltaStreak_ >= kBadDeltaEscalation;
    }

    /** Consecutive syncs that ended corrupt/rejected (0 after a success). */
    u32 badDeltaStreak() const { return badDeltaStreak_; }

    /** Community-model version last synced (0 = never synced). */
    u64 communityVersion() const { return communityVersion_; }

    /** Pin the community version (tests / snapshot restore). */
    void setCommunityVersion(u64 v) { communityVersion_ = v; }

    /** Simulated now (advances as queries are served). */
    SimTime now() const { return now_; }

    /** Advance simulated time (e.g., idle gaps between queries). */
    void advanceTime(SimTime dt) { now_ += dt; }

    /** Device constants. */
    const DeviceConfig &config() const { return cfg_; }

    /** The flash file store (inspection). */
    pc::simfs::FlashStore &store() { return *store_; }

    /** The raw flash device (inspection). */
    pc::nvm::FlashDevice &flash() { return *flash_; }

  private:
    /** Cached metric handles (null when no registry is attached). */
    struct Metrics
    {
        obs::Counter *queries = nullptr;
        obs::Counter *cacheHits = nullptr;
        obs::Histogram *latency[4] = {};
        obs::Histogram *energy[4] = {};
    };

    /** A registry counter copying a count its layer keeps. */
    struct Mirror
    {
        obs::Counter *counter;
        const u64 *source;
        u64 seen; ///< Source value at the last publish (or attach).
    };

    /** A link's energy gauge, set when the link's requests move. */
    struct EnergyMirror
    {
        obs::Gauge *gauge;
        const radio::RadioLink *link;
        u64 seenRequests;
    };

    /**
     * Bump every mirror by how far its source moved since the last
     * publish, and refresh the energy gauge of every link used since.
     * Runs at the single exit of each device operation.
     */
    void publishCounts();

    /** Emit a component span (none when `dur` is not positive). */
    void emitSpan(const char *name, SimTime start, SimTime dur) const;

    /** Emit the query end and record its histogram samples. */
    void finishQueryObs(const workload::PairRef &pair, ServePath path,
                        const QueryOutcome &out, SimTime t0);

    /** Append a device-power segment and charge energy. */
    void addSegment(QueryOutcome &out, std::string_view label, SimTime dur,
                    MilliWatts power) const;

    /** How one operation's radio attempts ended. */
    struct RadioRun
    {
        bool ok = false;     ///< An attempt was accepted.
        u32 attempts = 0;    ///< Attempts made.
        SimTime elapsed = 0; ///< Exchange plus backoff time.
    };

    /**
     * The device's one radio retry loop (query miss, community sync,
     * miss-queue drain). Each attempt runs through the attached fault
     * plan starting at `start` plus the time elapsed so far; the loop
     * counts it in resilience_, then calls
     * `on_attempt(attempt, at, outcome)`, which returns true to accept
     * the attempt and stop. Otherwise the loop stops at `max_attempts`
     * or the policy's budget, or waits a jittered exponential backoff
     * (never negative) reported through `on_backoff(attempt, at,
     * backoff)`. The hooks are inlined callables, so the loop adds no
     * allocation.
     */
    template <typename OnAttempt, typename OnBackoff>
    RadioRun radioRetry(radio::RadioLink &radio, SimTime start,
                        Bytes uplink, Bytes downlink, u32 max_attempts,
                        OnAttempt &&on_attempt, OnBackoff &&on_backoff);

    /**
     * Apply a verified delta (`frame` is the frame it decoded from):
     * adopt the attached install image when it fits (see
     * attachInstallImage), else core::tryApplyCommunityDelta.
     */
    core::DeltaApplyResult applyDelta(const core::CommunityDelta &delta,
                                      std::string_view frame,
                                      SimTime &time);

    DeviceConfig cfg_;
    std::unique_ptr<pc::nvm::FlashDevice> flash_;
    std::unique_ptr<pc::simfs::FlashStore> store_;
    std::unique_ptr<PocketSearch> ps_;
    Browser browser_;
    radio::RadioLink threeG_;
    radio::RadioLink edge_;
    radio::RadioLink wifi_;
    SimTime now_ = 0;
    u64 communityVersion_ = 0;
    u32 badDeltaStreak_ = 0;
    fault::FaultPlan *faults_ = nullptr;
    ResilienceStats resilience_;
    std::vector<workload::PairRef> missQueue_;
    obs::MetricRegistry *registry_ = nullptr;
    Metrics metrics_;
    std::vector<Mirror> metricMirrors_;       ///< Built by attachMetrics.
    std::vector<EnergyMirror> energyMirrors_; ///< Built by attachMetrics.
    std::vector<Mirror> healthMirrors_;       ///< Built by attachHealth.
    obs::DeviceEvents events_;
    const InstallImage *installImage_ = nullptr;
    u64 installsAdopted_ = 0;
};

/**
 * A full install applied once, kept for devices to copy on first
 * contact (MobileDevice::attachInstallImage). Every device of a fleet
 * starts as a clone of one image device, and its first sync installs
 * the same model onto that same empty cache; the result is a function
 * of the two, so it is computed here once. Read-only after
 * construction, so workers may share one image.
 */
class InstallImage
{
  public:
    /**
     * Clone `empty` twice and run the real apply of `full_install`
     * (core::tryApplyCommunityDelta) on one clone, keeping the apply
     * time, its DeltaApplyStats and the "simfs.*" counts its store
     * operations made.
     * @pre full_install.fromVersion == 0 and applies cleanly; `empty`
     *      meets the clone constructor's preconditions.
     */
    InstallImage(const MobileDevice &empty,
                 const core::CommunityDelta &full_install);
    InstallImage(const InstallImage &) = delete;
    InstallImage &operator=(const InstallImage &) = delete;

  private:
    friend class MobileDevice;

    MobileDevice empty_;     ///< The state the apply started from.
    MobileDevice installed_; ///< The state it left.
    std::string frame_;      ///< core::frameDelta of the install.
    SimTime applyTime_ = 0;
    core::DeltaApplyStats stats_;
    obs::MetricRegistry storeCounts_; ///< "simfs.*" counts of the apply.
};

} // namespace pc::device

#endif // PC_DEVICE_MOBILE_DEVICE_H
