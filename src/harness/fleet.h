/**
 * @file
 * Fleet runner: many simulated devices, one telemetry roll-up.
 *
 * Drives N independent MobileDevices — each with its own sampled user
 * profile, query stream, metric registry and (optionally) a fault
 * plan for an injected mid-run outage episode — and reduces them
 * through a FleetCollector into per-class and fleet-wide registries,
 * windowed time series (one window per simulated month) and an
 * anomaly scan.
 *
 * Parallelism: `FleetRunConfig::threads` workers claim device indices
 * in order (harness/in_order.h). Each worker simulates whole devices
 * in a private world (device, stream, fault plan, registry) and hands
 * back per-device telemetry: the per-window registry samples, the
 * final registry, and — when a cloud service is attached — the
 * deferred accounting of its monthly syncs (the sync itself runs
 * against the service read-only, see
 * CloudUpdateService::syncDetached). The calling thread folds those
 * results in strict device-index order through the one FleetCollector
 * and replays the sync accounting in the same order, so every
 * collector/registry operation happens in exactly the sequence the
 * sequential run produces. The fleet snapshot, per-class snapshots,
 * series CSVs and anomaly scan are therefore byte-identical at every
 * thread count (tested over a threads x devices x faults x cloud
 * grid). threads == 1 runs devices in place, so only one device's
 * world is alive at a time; a thousand-device run costs one device of
 * memory plus the collector's bounded series. A parallel run is
 * bounded too: workers never claim a device 16 x threads or more
 * ahead of the fold, so behind one slow device at most 16 x threads
 * telemetry records are held at once.
 *
 * Determinism: every device's stream/fault seeds derive from the run
 * seed and the device index, so a fixed FleetRunConfig reproduces the
 * same fleet byte for byte — at any thread count.
 */

#ifndef PC_HARNESS_FLEET_H
#define PC_HARNESS_FLEET_H

#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/postmortem.h"
#include "harness/workbench.h"
#include "obs/fleet.h"
#include "server/service.h"
#include "workload/stream.h"

namespace pc::harness {

/** Metric-name-safe key of a user class ("low", ..., "extreme"). */
std::string userClassKey(workload::UserClass cls);

/** Default outage episode: heavy coverage loss plus flaky exchanges. */
fault::FaultConfig defaultOutageFaults();

/**
 * Canonical CRC-32 digest of a content selection: pairs hashed the
 * way the device table stores them (query fnv, url hash, score,
 * accessed=false), sorted. Two digests compare equal iff the
 * selections install to identical device tables.
 */
u32 contentsDigest(const core::CacheContents &contents,
                   const workload::QueryUniverse &universe);

/**
 * The same canonical digest computed from a live device table (via
 * the wire codec, so it sees exactly the persisted pair state). A
 * CommunityOnly device that honestly holds server model v satisfies
 * deviceTableDigest(dev) == contentsDigest(model(v).contents).
 */
u32 deviceTableDigest(const core::PocketSearch &ps);

/**
 * Seeded chaos layered on a fleet run, plus the invariant checker
 * that proves the sync path survived it (see runFleet). When enabled,
 * devices run in CommunityOnly mode — personalization off — so that
 * after any successful sync the device table must be *byte-identical*
 * to the server model at the synced version, which is exactly what
 * the checker asserts. Chaos replaces the outage-episode fault
 * attachment for the run; everything stays a pure function of (device
 * index, month, config), so chaos runs are byte-deterministic at any
 * thread count, and a disabled ChaosConfig changes nothing at all.
 */
struct ChaosConfig
{
    bool enabled = false;

    /**
     * Correlated outage storm: months [stormStartMonth,
     * stormStartMonth + stormMonths) run every device's radio fully
     * dead (exchangeFailureRate 1), so the first month after the
     * storm is a fleet-wide thundering-herd reconnect.
     */
    u32 stormStartMonth = 1;
    u32 stormMonths = 1;

    /**
     * Bit-flip storm: per-delivery payload corruption rate applied to
     * every sync outside storm months (inside them nothing is ever
     * delivered). The CRC frame must catch every flip.
     */
    double payloadCorruptRate = 0.0;

    /**
     * Version-skew cohort: every skewEvery-th device (0 disables)
     * starts claiming a model version it never installed. Cohort
     * members alternate between an in-window claim (the service's
     * oldest version — the incremental delta will not fit the empty
     * table, forcing transactional rejection and, after
     * kBadDeltaEscalation strikes, a full-install escalation) and an
     * off-window claim (one below the window — the service answers
     * with a full install immediately).
     */
    u32 skewEvery = 0;

    /**
     * Deterministic admission control for the reconnect herd: device
     * i may sync in month m only if i < herdBudgetPerMonth * (number
     * of non-storm months in [0, m]). 0 disables shedding. The rule
     * is device-local, so workers need no shared admission state and
     * telemetry stays byte-identical at any thread count; shed syncs
     * are replayed into the service registry ("server.sync.shed") in
     * device-index order like every other accounting.
     */
    u64 herdBudgetPerMonth = 0;

    /**
     * Deliberate silent sabotage: after its monthly loop, every
     * sabotageEvery-th device (0 disables) that synced successfully
     * gets one cached pair's score silently bumped — a corruption no
     * CRC frame ever saw, so the digest invariant MUST trip and the
     * postmortem engine must explain it. This is the ground truth the
     * postmortem tests gate on: violations == sabotaged devices, each
     * with a causal chain spanning both tiers.
     */
    u32 sabotageEvery = 0;
};

/**
 * Flash-crowd query storm: the one sub-month scenario. Enabling it
 * switches each device from the month loop to a time-ordered merge of
 * a short control list (window samples, month begins, outage start,
 * reconnect) and a Poisson arrival chain; see DESIGN.md "Flash-crowd
 * schedule" for the equal-time order. Per device, query arrivals
 * become a seeded Poisson process (thinning against the burst-boosted
 * peak rate) instead of the stream's evenly-spread monthly volume; the
 * stream still supplies *which* pair each arrival issues, so
 * hot-set/repeat behaviour and monthly epoch churn are unchanged. A
 * burst window multiplies the arrival rate; an optional mid-month
 * radio outage kills the radio between OutageStart and a per-device
 * staggered Reconnect, which drains the miss queue the moment coverage
 * returns instead of waiting for a month boundary: the staggered sync
 * storm. Telemetry windows close at the collector's own width
 * (FleetConfig::windowWidth): a sub-month width gives the series
 * intra-month resolution — how the burst and the reconnect storm show
 * up in it at all. Everything derives from (run seed, device index),
 * so flash-crowd runs are byte-deterministic at any thread count like
 * every other fleet run.
 */
struct FlashCrowdConfig
{
    bool enabled = false;

    /** Base Poisson arrival rate, per device (events per hour). */
    double arrivalsPerHour = 2.0;

    /** Burst window [burstStart, burstStart + burstLen) — absolute
     *  sim time since run start; clamped to the horizon. */
    SimTime burstStart = 0;
    SimTime burstLen = 0;
    /**
     * Arrival-rate multiplier inside the burst window: any finite
     * value >= 0. Above 1 the window is a burst; in [0, 1) it is a
     * quiet window (0 silences it). Thinning runs against
     * max(1, burstMultiplier) times the base rate.
     */
    double burstMultiplier = 1.0;

    /** Mid-month radio outage [outageStart, outageStart + outageLen);
     *  0 length disables. Clamped to the horizon. */
    SimTime outageStart = 0;
    SimTime outageLen = 0;
    /**
     * Reconnect stagger: device i's radio comes back (and its miss
     * queue drains) at outageEnd + i * reconnectStagger — the herd
     * spreads instead of thundering. 0 reconnects everyone at once.
     */
    SimTime reconnectStagger = 0;
};

/** Fleet run shape. */
struct FleetRunConfig
{
    std::size_t devices = 100; ///< Simulated handsets.
    u32 months = 6;            ///< Simulated months per device.
    u64 seed = 2011;           ///< Run seed (streams + faults derive).

    /**
     * Simulation worker threads. 1 (the default) simulates devices in
     * place on the calling thread; 0 means "one per hardware thread".
     * Output bytes do not depend on this knob — only wall time does.
     * Benches wire it to --threads / PC_THREADS (bench::threadsKnob).
     */
    unsigned threads = 1;

    /**
     * Outage episode: months [outageStartMonth, outageStartMonth +
     * outageMonths) run with `outageFaults` attached; 0 months
     * disables injection entirely.
     */
    u32 outageStartMonth = 0;
    u32 outageMonths = 0;
    fault::FaultConfig outageFaults = defaultOutageFaults();

    device::DeviceConfig device{}; ///< Per-device constants.

    /**
     * Optional cloud update service. When set, devices do NOT get the
     * workbench's one-shot community push; instead each device syncs
     * to the service's latest model version at the start of every
     * month over 3G — full install on first contact, deltas after —
     * under whatever fault plan the month carries (a sync that fails
     * in an outage month leaves the device on its stale model), and
     * the service's "server.*" metrics fold into the collector's
     * fleet registry after the run. nullptr (the default) preserves
     * the original behaviour byte for byte.
     */
    server::CloudUpdateService *cloud = nullptr;

    /**
     * Chaos schedule + invariant checking (requires `cloud`).
     * Disabled by default; see ChaosConfig.
     */
    ChaosConfig chaos{};

    /**
     * Flight-recorder ring capacity for chaos runs (events per
     * device). Chaos attaches a recorder to every device so invariant
     * violations come back explained (see postmortem.h); chaos off
     * attaches nothing and records nothing.
     */
    std::size_t recorderCapacity = obs::FlightRecorder::kDefaultCapacity;

    /** Flash-crowd scenario (see FlashCrowdConfig). */
    FlashCrowdConfig flashCrowd{};

    /**
     * Attach a health accountant (obs/health.h) to every device: the
     * fleet snapshot and windowed series gain `health.*` busy-time /
     * demand ledgers for the bottleneck analyzer, still folded in
     * device-index order so artifacts stay byte-identical at any
     * thread count. Off (the default) registers nothing and keeps
     * every pre-existing baseline byte-identical, like `cloud`.
     */
    bool health = false;
};

/** Scalar outcome of a fleet run (series live in the collector). */
struct FleetRunResult
{
    std::size_t devices = 0;
    u64 queries = 0;
    u64 cacheHits = 0;
    u64 degradedServes = 0;
    u64 cloudSyncs = 0;        ///< Successful community syncs (cloud set).
    u64 cloudSyncFailures = 0; ///< Syncs that exhausted their retries.
    u64 cloudSyncsShed = 0;    ///< Syncs dropped by admission control.
    u64 reconnectSyncs = 0;    ///< Mid-month miss-queue drains fired by
                               ///< flash-crowd reconnect events.
    u64 corruptRejected = 0;   ///< Delta frames the CRC check rejected.
    u64 rejectedDeltas = 0;    ///< Verified deltas failing validation.
    u64 escalatedFullInstalls = 0; ///< Bad-streak full-install syncs.
    u64 devicesVerified = 0;   ///< Devices digest-checked against the
                               ///< server model (chaos runs only).
    u64 devicesSabotaged = 0;  ///< Tables chaos silently corrupted —
                               ///< the postmortem ground truth.
    /**
     * Chaos invariant trips: a successfully synced device whose table
     * is not byte-identical to the server model, a non-monotone
     * version history, or an injected corruption that was not caught.
     * Always 0 unless the sync path is broken (or chaos sabotage made
     * it so deliberately); tests and the chaos bench gate on it.
     */
    u64 invariantViolations = 0;

    /**
     * One explained report per invariant trip, in device-index order
     * (byte-deterministic at any thread count). Chaos runs only —
     * empty whenever invariantViolations is 0.
     */
    std::vector<InvariantReport> invariantReports;

    /**
     * Why the run refused to start (validateFleetRunConfig). Empty on
     * every run that executed — including legitimately empty ones
     * (0 devices, 0 months). A non-empty error means nothing ran and
     * no collector/service state was touched.
     */
    std::string error;
};

/**
 * Validate a FleetRunConfig before running it. @return Empty when the
 * config is runnable (possibly as a clean empty run — 0 devices or 0
 * months execute nothing and report zeros); otherwise a one-line
 * reason. Degenerate schedules that clamp harmlessly (outage episodes
 * longer than the horizon, burst windows straddling the end) are
 * valid. Errors are chaos without a cloud service, a flash crowd
 * combined with chaos or with the epoch outage episode, and
 * non-finite or negative flash-crowd rates and times. runFleet()
 * checks this itself and returns the reason in FleetRunResult::error
 * instead of asserting.
 */
std::string validateFleetRunConfig(const FleetRunConfig &cfg);

/**
 * Run the fleet against `wb`'s world, reducing into `collector`.
 * Epoch-granular runs sample each device once a month, so their
 * collector should have a window width of one month (workload::kMonth)
 * for the outage episode to land in its own windows; other widths roll
 * up correspondingly coarser. Flash-crowd runs sample at the
 * collector's width, whatever it is. Every device starts as a clone
 * of one image device built per call, which holds the installed
 * community push when no cloud service is attached.
 */
FleetRunResult runFleet(const Workbench &wb, const FleetRunConfig &cfg,
                        obs::FleetCollector &collector);

} // namespace pc::harness

#endif // PC_HARNESS_FLEET_H
