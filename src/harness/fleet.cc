#include "harness/fleet.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <cmath>

#include "core/table_codec.h"
#include "harness/in_order.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace pc::harness {

std::string
userClassKey(workload::UserClass cls)
{
    switch (cls) {
      case workload::UserClass::Low: return "low";
      case workload::UserClass::Medium: return "medium";
      case workload::UserClass::High: return "high";
      case workload::UserClass::Extreme: return "extreme";
    }
    return "unknown";
}

fault::FaultConfig
defaultOutageFaults()
{
    fault::FaultConfig f;
    f.radio.outageShare = 0.45;
    f.radio.meanOutageDuration = 10ll * 60 * kSecond;
    f.radio.exchangeFailureRate = 0.05;
    f.radio.latencySpikeRate = 0.10;
    return f;
}

namespace {

/**
 * CRC-32 over wire pairs in canonical (query fnv, url hash) order,
 * each in its upload-record layout.
 */
u32
digestWirePairs(std::vector<core::WirePair> pairs)
{
    std::sort(pairs.begin(), pairs.end(),
              [](const core::WirePair &a, const core::WirePair &b) {
                  if (a.queryFnv != b.queryFnv)
                      return a.queryFnv < b.queryFnv;
                  return a.urlHash < b.urlHash;
              });
    std::string records;
    records.reserve(core::wireSize(pairs.size()));
    for (const auto &w : pairs)
        core::appendWireRecord(records, w);
    return crc32(records);
}

} // namespace

u32
contentsDigest(const core::CacheContents &contents,
               const workload::QueryUniverse &universe)
{
    std::vector<core::WirePair> pairs;
    pairs.reserve(contents.pairs.size());
    for (const auto &sp : contents.pairs) {
        core::WirePair w;
        w.queryFnv = fnv1a(universe.query(sp.pair.query).text);
        w.urlHash = urlHash(universe.result(sp.pair.result).url);
        w.score = sp.score;
        w.accessed = false;
        pairs.push_back(w);
    }
    return digestWirePairs(std::move(pairs));
}

u32
deviceTableDigest(const core::PocketSearch &ps)
{
    const auto decoded = core::decodeTable(core::encodeTable(ps.table()));
    pc_assert(decoded.has_value(), "device table failed to round-trip");
    return digestWirePairs(*decoded);
}

std::string
validateFleetRunConfig(const FleetRunConfig &cfg)
{
    if (cfg.chaos.enabled && cfg.cloud == nullptr)
        return "chaos needs a cloud service attached";
    const FlashCrowdConfig &fc = cfg.flashCrowd;
    if (fc.enabled) {
        if (cfg.chaos.enabled)
            return "flash crowd and chaos cannot combine (chaos "
                   "invariants assume the epoch-granular schedule)";
        if (cfg.outageMonths > 0)
            return "flash crowd replaces the epoch outage episode "
                   "(use flashCrowd.outageStart/outageLen)";
        if (!std::isfinite(fc.arrivalsPerHour) || fc.arrivalsPerHour < 0)
            return "flash crowd arrivalsPerHour must be finite and >= 0";
        if (!std::isfinite(fc.burstMultiplier) || fc.burstMultiplier < 0)
            return "flash crowd burstMultiplier must be finite and >= 0";
        if (fc.burstStart < 0 || fc.burstLen < 0 || fc.outageStart < 0 ||
            fc.outageLen < 0 || fc.reconnectStagger < 0)
            return "flash crowd times must be non-negative";
    }
    return "";
}

namespace {

/**
 * Parallel-fold window per worker thread: how many devices the workers
 * may claim ahead of the fold. A much smaller window leaves workers
 * parked behind one slow device; this one keeps them busy at the cost
 * of 16 device telemetry records per thread.
 */
constexpr std::size_t kFoldWindowPerThread = 16;

/**
 * Everything one simulated device hands to the in-order fold: the
 * window-boundary samples the collector diffs, the final registry
 * it merges, and the deferred accounting of any cloud syncs. Move-only
 * (the registry), which forEachInOrder supports.
 */
struct DeviceTelemetry
{
    std::size_t index = 0;
    std::string classKey;
    std::vector<std::pair<SimTime, obs::MetricsSample>> windows;
    std::unique_ptr<obs::MetricRegistry> registry;
    /** One entry per attempted monthly sync, month order. */
    std::vector<server::CloudUpdateService::SyncAccounting> syncs;

    // Chaos-run evidence for the invariant checker (zero cost when
    // chaos is off: digest never computed, flags stay default).
    u64 finalVersion = 0;     ///< Community version after the run.
    bool anySyncOk = false;   ///< At least one sync applied.
    bool monotone = true;     ///< Version never moved backwards.
    u32 tableDigest = 0;      ///< Canonical table digest (chaos only).
    u64 corruptRejected = 0;  ///< Frames the device's CRC check caught.
    u64 rejectedDeltas = 0;   ///< Deltas validation rejected.
    u64 injectedCorruptions = 0; ///< Flips the fault plans injected.
    u64 shedSyncs = 0;        ///< Syncs shed by the admission rule.
    u64 reconnectDrains = 0;  ///< Flash-crowd reconnect miss drains.
    bool sabotaged = false;   ///< Chaos silently corrupted this table.
    /** Flight-recorder window (chaos only), for postmortems. */
    std::vector<obs::SyncEvent> events;
};

/**
 * One device's private simulation world plus the steps that drive it.
 * The month loop calls beginMonth / serve-per-event / endMonth; the
 * flash-crowd merge (driveFlashCrowd) calls the same beginMonth and
 * serve plus its own window, outage and reconnect steps.
 */
class DeviceSim
{
  public:
    DeviceSim(const Workbench &wb, const FleetRunConfig &cfg,
              const device::MobileDevice &image,
              const device::InstallImage *firstContact, std::size_t i,
              const workload::UserProfile &profile)
        : cfg_(cfg), i_(i), chaos_(cfg.chaos.enabled),
          devSeed_(cfg.seed * 1000003ull + u64(i) * 7919ull)
    {
        out_.index = i;
        out_.classKey = userClassKey(profile.cls);
        out_.registry = std::make_unique<obs::MetricRegistry>();

        // Every device starts as a clone of the run's image (built in
        // runFleet); observers and faults attach after the clone.
        dev_.emplace(image);
        dev_->attachMetrics(out_.registry.get());
        dev_->attachInstallImage(firstContact);

        // Chaos attaches the flight recorder: every sync leaves a
        // causal event chain (both tiers), so an invariant trip comes
        // back as an explained postmortem instead of a bare count. The
        // recorder is private to this worker — recording stays
        // deterministic and thread-free.
        if (chaos_) {
            recorder_.emplace(u64(i), cfg.recorderCapacity);
            dev_->attachFlightRecorder(&*recorder_);
        }

        // Health ledgers are plain registry counters, so they ride the
        // same window samples and device-index-ordered fold as every
        // other metric — no extra plumbing keeps them deterministic.
        if (cfg.health) {
            health_.emplace(*out_.registry);
            dev_->attachHealth(&*health_);
        }

        // Version-skew cohort: every skewEvery-th device claims a
        // model version it never installed, alternating between an
        // in-window lie (forces transactional rejection, then
        // escalation) and an off-window lie (forces an immediate full
        // install).
        if (chaos_ && cfg.chaos.skewEvery != 0 && cfg.cloud &&
            i % cfg.chaos.skewEvery == 0) {
            const u64 oldest = cfg.cloud->oldestVersion();
            if (oldest > 0) {
                const u64 claim = ((i / cfg.chaos.skewEvery) % 2 == 0)
                                      ? oldest
                                      : (oldest > 1 ? oldest - 1 : oldest);
                dev_->setCommunityVersion(claim);
                lastVersion_ = claim;
            }
        }

        // Per-device derived seeds: device index decorrelates streams
        // and fault schedules, the run seed shifts the whole fleet.
        stream_.emplace(wb.universe(), profile, devSeed_);
        fault::FaultConfig faultCfg = cfg.outageFaults;
        faultCfg.seed = devSeed_ + 1;
        faults_.emplace(faultCfg);

        // Chaos fault plans replace the outage-episode plan for the
        // whole run: stormPlan kills the radio outright, chaosPlan
        // flips payload bits at the configured rate. Only built under
        // chaos, so a disabled ChaosConfig draws nothing and changes
        // no bytes.
        if (chaos_) {
            fault::FaultConfig storm;
            storm.seed = devSeed_ + 2;
            storm.radio.exchangeFailureRate = 1.0;
            stormPlan_.emplace(storm);
            fault::FaultConfig flips;
            flips.seed = devSeed_ + 3;
            flips.radio.payloadCorruptRate = cfg.chaos.payloadCorruptRate;
            chaosPlan_.emplace(flips);
        }

        // Flash-crowd outage plan: radio dead between the OutageStart
        // event and the device's staggered Reconnect event.
        if (cfg.flashCrowd.enabled && cfg.flashCrowd.outageLen > 0) {
            fault::FaultConfig dead;
            dead.seed = devSeed_ + 5;
            dead.radio.exchangeFailureRate = 1.0;
            flashOutagePlan_.emplace(dead);
        }
    }

    /**
     * Month prologue: fault-plan attachment for the epoch-granular
     * schedule (the flash-crowd driver owns fault attachment through
     * its outage events instead) and the monthly cloud sync.
     */
    void
    beginMonth(u32 m)
    {
        const bool inOutage = cfg_.outageMonths > 0 &&
                              m >= cfg_.outageStartMonth &&
                              m < cfg_.outageStartMonth + cfg_.outageMonths;
        const bool inStorm =
            chaos_ && cfg_.chaos.stormMonths > 0 &&
            m >= cfg_.chaos.stormStartMonth &&
            m < cfg_.chaos.stormStartMonth + cfg_.chaos.stormMonths;
        if (!inStorm)
            ++nonStormMonths_;
        if (!cfg_.flashCrowd.enabled) {
            if (chaos_)
                dev_->attachFaults(inStorm ? &*stormPlan_ : &*chaosPlan_);
            else
                dev_->attachFaults(inOutage ? &*faults_ : nullptr);
            radioDark_ = chaos_ ? inStorm : inOutage;
        }

        // Monthly model sync through the cloud service, under the
        // month's fault plan: first contact is a full install, later
        // months download deltas. A failed sync (outage) leaves the
        // device serving from its stale model. The sync is detached:
        // the service registry is replayed by the fold, not written
        // here, so concurrent workers never share mutable state.
        if (cfg_.cloud &&
            cfg_.cloud->latestVersion() > dev_->communityVersion()) {
            // Deterministic admission rule: each non-storm month
            // admits another herdBudgetPerMonth devices (by index), so
            // a post-storm reconnect herd drains over several months.
            // Device-local, hence thread-count independent.
            const bool shed =
                chaos_ && cfg_.chaos.herdBudgetPerMonth > 0 &&
                u64(i_) >=
                    u64(nonStormMonths_) * cfg_.chaos.herdBudgetPerMonth;
            if (shed) {
                server::CloudUpdateService::SyncAccounting acct;
                acct.shed = true;
                out_.syncs.push_back(acct);
                ++out_.shedSyncs;
            } else {
                server::CloudUpdateService::SyncAccounting acct;
                const auto res = cfg_.cloud->syncDetached(*dev_, &acct);
                out_.syncs.push_back(acct);
                if (res.ok)
                    out_.anySyncOk = true;
            }
            if (dev_->communityVersion() < lastVersion_)
                out_.monotone = false;
            lastVersion_ = dev_->communityVersion();
        }
    }

    /** The month's epoch-granular query schedule (time-ordered). */
    std::vector<workload::StreamEvent>
    monthEvents(u32 m)
    {
        stream_->setEpoch(m);
        return stream_->month(SimTime(m) * workload::kMonth);
    }

    /** Advance the stream's epoch/window without materializing events
     *  (flash-crowd mode draws pairs one arrival at a time). */
    void
    beginStreamMonth(u32 m)
    {
        stream_->setEpoch(m);
        stream_->beginMonth(SimTime(m) * workload::kMonth);
    }

    /** Draw the next arrival's pair (flash-crowd mode; the caller
     *  overrides the stream's evenly-spread timestamp). */
    workload::StreamEvent nextArrivalPair() { return stream_->next(); }

    /** Serve one query event. */
    void
    serve(const workload::StreamEvent &ev)
    {
        if (ev.time > dev_->now())
            dev_->advanceTime(ev.time - dev_->now());
        dev_->serveQuery(ev.pair, device::ServePath::PocketSearch);
    }

    /**
     * Month epilogue: drain the misses the device queued while the
     * cloud was dark (coverage is back after an outage/storm month)
     * and sample the telemetry window.
     */
    void
    endMonth(u32 m)
    {
        if (!radioDark_ && !dev_->missQueue().empty())
            dev_->syncMissQueue();
        out_.windows.emplace_back(SimTime(m) * workload::kMonth,
                                  out_.registry->sample());
    }

    /** Flash-crowd OutageStart event: the radio goes dark mid-month. */
    void
    radioDown()
    {
        dev_->attachFaults(&*flashOutagePlan_);
        radioDark_ = true;
    }

    /**
     * Flash-crowd Reconnect event: coverage returns at this device's
     * staggered slot; the queued misses sync immediately — the
     * sub-epoch sync storm the epoch harness cannot express.
     */
    void
    reconnect()
    {
        dev_->attachFaults(nullptr);
        radioDark_ = false;
        if (!dev_->missQueue().empty()) {
            dev_->syncMissQueue();
            ++out_.reconnectDrains;
        }
    }

    /** Sample one telemetry window (flash-crowd sub-month widths). */
    void
    sampleWindow(SimTime windowStart)
    {
        out_.windows.emplace_back(windowStart, out_.registry->sample());
    }

    /** Run epilogue: sabotage injection, chaos evidence, detach. */
    DeviceTelemetry
    finish()
    {
        dev_->attachFaults(nullptr);

        // Deliberate sabotage: silently bump one cached pair's score —
        // a corruption the CRC frame never saw. The digest invariant
        // must trip and the postmortem must explain it; the Sabotage
        // event is the ground-truth marker the report carries.
        if (chaos_ && cfg_.chaos.sabotageEvery != 0 && cfg_.cloud &&
            i_ % cfg_.chaos.sabotageEvery == 0 &&
            cfg_.cloud->latestVersion() > 0 &&
            dev_->communityVersion() == cfg_.cloud->latestVersion()) {
            const auto &pairs = cfg_.cloud->latest().contents.pairs;
            if (!pairs.empty()) {
                const auto &victim = pairs.front();
                if (dev_->pocketSearch().setPairScore(victim.pair,
                                                      victim.score + 1.0)) {
                    out_.sabotaged = true;
                    if (recorder_.has_value()) {
                        const u64 v = dev_->communityVersion();
                        recorder_->openTrace();
                        recorder_->onEvent(
                            {.stage = obs::SyncStage::Sabotage, .ok = false,
                             .fromVersion = v, .toVersion = v,
                             .detail = u64(victim.pair.query),
                             .start = dev_->now()});
                        recorder_->closeTrace();
                    }
                }
            }
        }

        out_.finalVersion = dev_->communityVersion();
        if (chaos_) {
            out_.tableDigest = deviceTableDigest(dev_->pocketSearch());
            out_.injectedCorruptions =
                chaosPlan_->stats().payloadCorruptions +
                stormPlan_->stats().payloadCorruptions;
            out_.corruptRejected = dev_->resilience().corruptDeltas;
            out_.rejectedDeltas = dev_->resilience().rejectedDeltas;
            if (recorder_.has_value()) {
                out_.events = recorder_->events();
                // Ring pressure into the device registry, so the fleet
                // snapshot exposes trace loss ("obs.flight.*").
                recorder_->publishMetrics(*out_.registry);
            }
            dev_->attachFlightRecorder(nullptr);
        }
        if (health_.has_value())
            dev_->attachHealth(nullptr);
        return std::move(out_);
    }

    u64 deviceSeed() const { return devSeed_; }

  private:
    const FleetRunConfig &cfg_;
    std::size_t i_;
    bool chaos_;
    u64 devSeed_;
    DeviceTelemetry out_;
    std::optional<device::MobileDevice> dev_;
    std::optional<obs::FlightRecorder> recorder_;
    std::optional<obs::health::HealthAccountant> health_;
    std::optional<workload::UserStream> stream_;
    std::optional<fault::FaultPlan> faults_;
    std::optional<fault::FaultPlan> stormPlan_;
    std::optional<fault::FaultPlan> chaosPlan_;
    std::optional<fault::FaultPlan> flashOutagePlan_;
    u64 lastVersion_ = 0;
    u32 nonStormMonths_ = 0;
    bool radioDark_ = false;
};

/**
 * Flash-crowd schedule: Poisson query arrivals (thinning against the
 * burst-boosted peak rate), a mid-month radio outage with per-device
 * staggered reconnect, monthly cloud syncs at month begins, and
 * telemetry samples every `window` of sim time (the collector's own,
 * possibly sub-month, width). Two time-ordered inputs are merged: a
 * control list, stable-sorted by time so equal-time controls keep the
 * order they are listed in here (window sample, month begin, outage
 * start, reconnect), and the arrival chain. An arrival runs only when
 * it is strictly earlier than the next control, so at equal times
 * every control runs first. The artifact bytes are therefore a pure
 * function of the config and the window width.
 */
void
driveFlashCrowd(DeviceSim &sim, const FleetRunConfig &cfg, std::size_t i,
                SimTime window)
{
    const FlashCrowdConfig &fc = cfg.flashCrowd;
    const SimTime horizon = SimTime(cfg.months) * workload::kMonth;
    if (horizon <= 0)
        return;

    struct Control
    {
        SimTime at;
        enum { Window, MonthBegin, OutageStart, Reconnect } kind;
        SimTime arg; ///< Window start, or month index.
    };
    std::vector<Control> controls;

    // Telemetry windows first, so a window ending exactly on a month
    // boundary closes before that month's sync runs. The last window
    // closes at the horizon, after every arrival.
    for (SimTime ws = 0; ws < horizon; ws += window)
        controls.push_back(
            {std::min(ws + window, horizon), Control::Window, ws});

    for (u32 m = 0; m < cfg.months; ++m)
        controls.push_back(
            {SimTime(m) * workload::kMonth, Control::MonthBegin, m});

    if (fc.outageLen > 0 && fc.outageStart < horizon) {
        controls.push_back({fc.outageStart, Control::OutageStart, 0});
        // Staggered reconnect: device i's slot; clamped so the drain
        // still happens inside the run.
        const SimTime outageEnd =
            std::min(fc.outageStart + fc.outageLen, horizon);
        SimTime reconnectAt = outageEnd;
        if (fc.reconnectStagger > 0) {
            const double slot = double(outageEnd) +
                                double(i) * double(fc.reconnectStagger);
            reconnectAt = slot >= double(horizon) ? horizon
                                                  : SimTime(slot);
        }
        controls.push_back({reconnectAt, Control::Reconnect, 0});
    }
    std::stable_sort(controls.begin(), controls.end(),
                     [](const Control &a, const Control &b) {
                         return a.at < b.at;
                     });

    // Poisson arrival chain. Thinning keeps the draw sequence a pure
    // function of (seed, device): candidate steps come from the peak
    // rate, and a second uniform accepts with probability
    // rate(t)/peak. The chain ends (nullopt) at the horizon.
    const double perTick =
        fc.arrivalsPerHour / (3600.0 * double(kSecond));
    const double peak = perTick * std::max(1.0, fc.burstMultiplier);
    const SimTime burstStart = std::min(fc.burstStart, horizon);
    const SimTime burstEnd =
        fc.burstLen > horizon - burstStart ? horizon
                                           : burstStart + fc.burstLen;
    const auto rateAt = [&](SimTime t) {
        return perTick * (t >= burstStart && t < burstEnd
                              ? fc.burstMultiplier
                              : 1.0);
    };
    Rng arrivals(sim.deviceSeed() + 4);
    const auto nextArrival = [&](SimTime from) -> std::optional<SimTime> {
        if (!(peak > 0))
            return std::nullopt;
        double t = double(from);
        for (;;) {
            t += -std::log(1.0 - arrivals.uniform()) / peak;
            if (t >= double(horizon))
                return std::nullopt;
            if (arrivals.uniform() * peak < rateAt(SimTime(t)))
                return SimTime(t);
        }
    };

    std::optional<SimTime> arrival = nextArrival(0);
    for (const Control &c : controls) {
        while (arrival && *arrival < c.at) {
            workload::StreamEvent se = sim.nextArrivalPair();
            se.time = *arrival;
            sim.serve(se);
            arrival = nextArrival(*arrival);
        }
        switch (c.kind) {
          case Control::Window: sim.sampleWindow(c.arg); break;
          case Control::MonthBegin:
            sim.beginMonth(u32(c.arg));
            sim.beginStreamMonth(u32(c.arg));
            break;
          case Control::OutageStart: sim.radioDown(); break;
          case Control::Reconnect: sim.reconnect(); break;
        }
    }
}

/**
 * Simulate device `i` in a private world: the month loop for every
 * epoch-granular run, the flash-crowd merge (sampling every `window`)
 * when that scenario is on. Reads the workbench and the cloud service
 * (if any) strictly read-only, so any number of these may run
 * concurrently.
 */
DeviceTelemetry
simulateDevice(const Workbench &wb, const FleetRunConfig &cfg,
               const device::MobileDevice &image,
               const device::InstallImage *firstContact, std::size_t i,
               const workload::UserProfile &profile, SimTime window)
{
    DeviceSim sim(wb, cfg, image, firstContact, i, profile);
    if (cfg.flashCrowd.enabled) {
        driveFlashCrowd(sim, cfg, i, window);
    } else {
        for (u32 m = 0; m < cfg.months; ++m) {
            sim.beginMonth(m);
            for (const auto &ev : sim.monthEvents(m))
                sim.serve(ev);
            sim.endMonth(m);
        }
    }
    return sim.finish();
}

/**
 * What the invariant checker compares every chaos device against:
 * the latest server version and the canonical digest of its contents.
 * Computed once per run, before the fold starts.
 */
struct ChaosCheckCtx
{
    bool active = false;
    u64 latest = 0;
    u32 expectedDigest = 0;
};

/**
 * Fold one device's telemetry into the collector, the cloud registry
 * and the scalar result. Must be called in device-index order — the
 * whole byte-identity argument rests on it. Under chaos (ctx.active)
 * this is also the invariant checker: every device that ever synced
 * successfully must have ended byte-identical to the latest server
 * model, versions must be monotone, and every injected corruption
 * must have been caught by the CRC frame.
 */
void
foldDevice(DeviceTelemetry &&t, const FleetRunConfig &cfg,
           const ChaosCheckCtx &ctx, obs::FleetCollector &collector,
           FleetRunResult &result)
{
    collector.beginDevice(t.classKey);
    for (auto &[windowStart, sample] : t.windows)
        collector.collect(windowStart, std::move(sample));
    collector.endDevice(*t.registry);

    for (const auto &acct : t.syncs) {
        cfg.cloud->accountSync(acct);
        if (acct.shed)
            ++result.cloudSyncsShed;
        else if (acct.ok)
            ++result.cloudSyncs;
        else
            ++result.cloudSyncFailures;
        if (acct.escalated)
            ++result.escalatedFullInstalls;
    }
    result.corruptRejected += t.corruptRejected;
    result.rejectedDeltas += t.rejectedDeltas;
    result.reconnectSyncs += t.reconnectDrains;

    if (ctx.active) {
        // Violations come back explained: the verdict plus the
        // device's causal event chain (postmortem.h). Reports are
        // appended here, in device-index order, so the postmortem
        // artifact is byte-identical at any thread count.
        const auto report = [&](InvariantKind kind) {
            InvariantReport r;
            r.device = t.index;
            r.kind = kind;
            r.sabotaged = t.sabotaged;
            r.deviceVersion = t.finalVersion;
            r.serverVersion = ctx.latest;
            r.deviceDigest = t.tableDigest;
            r.serverDigest = ctx.expectedDigest;
            r.corruptCaught = t.corruptRejected;
            r.corruptInjected = t.injectedCorruptions;
            r.chain = t.events;
            result.invariantReports.push_back(std::move(r));
            ++result.invariantViolations;
        };
        if (t.sabotaged)
            ++result.devicesSabotaged;
        if (!t.monotone) {
            pc_warn("chaos invariant: device ", t.index,
                    " saw a non-monotone version history");
            report(InvariantKind::NonMonotoneVersion);
        }
        if (t.corruptRejected != t.injectedCorruptions) {
            pc_warn("chaos invariant: device ", t.index, " caught ",
                    t.corruptRejected, " corruptions but ",
                    t.injectedCorruptions, " were injected");
            report(InvariantKind::UncaughtCorruption);
        }
        if (t.anySyncOk) {
            ++result.devicesVerified;
            if (t.finalVersion != ctx.latest ||
                t.tableDigest != ctx.expectedDigest) {
                pc_warn("chaos invariant: device ", t.index,
                        " synced ok but ended at version ",
                        t.finalVersion, " digest ", t.tableDigest,
                        " (server: version ", ctx.latest, " digest ",
                        ctx.expectedDigest, ")");
                report(InvariantKind::DigestMismatch);
            }
        }
    }

    const auto count = [&](const char *name) {
        const obs::Counter *c = t.registry->findCounter(name);
        return c ? c->value() : 0;
    };
    result.queries += count("device.queries");
    result.cacheHits += count("device.cache_hits");
    result.degradedServes += count("device.degraded.serves");
    ++result.devices;
}

} // namespace

FleetRunResult
runFleet(const Workbench &wb, const FleetRunConfig &cfg,
         obs::FleetCollector &collector)
{
    FleetRunResult earlyOut;
    earlyOut.error = validateFleetRunConfig(cfg);
    if (!earlyOut.error.empty()) {
        pc_warn("runFleet refused: ", earlyOut.error);
        return earlyOut;
    }

    ChaosCheckCtx ctx;
    if (cfg.chaos.enabled && cfg.cloud &&
        cfg.cloud->latestVersion() > 0) {
        ctx.active = true;
        ctx.latest = cfg.cloud->latestVersion();
        ctx.expectedDigest =
            contentsDigest(cfg.cloud->latest().contents, wb.universe());
    }

    workload::PopulationSampler sampler(wb.population());
    const auto profiles = sampler.samplePopulation(cfg.devices);

    unsigned threads =
        cfg.threads ? cfg.threads : std::thread::hardware_concurrency();
    if (threads == 0)
        threads = 1;
    // A 0-device fleet (or a 0-month horizon, which samples devices
    // but simulates nothing) is a clean empty run, not an error: the
    // in-place path folds zero (or all-zero) devices and the cloud
    // registry still merges below.
    if (std::size_t(threads) > cfg.devices)
        threads = cfg.devices > 0 ? unsigned(cfg.devices) : 1;

    // The state every device starts from, built once before any worker
    // starts: without a cloud service the community push is installed
    // here, and each DeviceSim clones the result instead of repeating
    // the identical install. Workers only read it. Chaos runs pin the
    // cache to CommunityOnly so a synced device table is
    // byte-comparable to the server model (the invariant the fold
    // checks); chaos off leaves the config untouched.
    core::PocketSearchConfig psCfg;
    if (cfg.chaos.enabled)
        psCfg.mode = core::CacheMode::CommunityOnly;
    device::MobileDevice image(wb.universe(), cfg.device, psCfg);
    if (!cfg.cloud) {
        SimTime installTime = 0;
        image.pocketSearch().loadCommunity(wb.communityCache(),
                                           installTime);
    }
    // With a cloud service, a device's first sync is the full install
    // of the latest model onto a cache still equal to the image's, so
    // that apply runs once here and each device copies its result
    // (MobileDevice::attachInstallImage checks both conditions).
    std::optional<device::InstallImage> firstContact;
    if (cfg.cloud && cfg.cloud->latestVersion() > 0)
        firstContact.emplace(image, cfg.cloud->makeDelta(0));
    const device::InstallImage *install =
        firstContact ? &*firstContact : nullptr;

    // Flash-crowd devices sample telemetry at the collector's width.
    const SimTime window = collector.windowWidth();
    FleetRunResult result;
    if (threads == 1) {
        // In-place: one device world alive at a time.
        for (std::size_t i = 0; i < profiles.size(); ++i)
            foldDevice(simulateDevice(wb, cfg, image, install, i,
                                      profiles[i], window),
                       cfg, ctx, collector, result);
    } else {
        // At most kFoldWindowPerThread * threads telemetry records are
        // alive at once, however slow one device is.
        forEachInOrder(
            profiles.size(), threads, kFoldWindowPerThread * threads,
            [&](std::size_t i) {
                return simulateDevice(wb, cfg, image, install, i,
                                      profiles[i], window);
            },
            [&](DeviceTelemetry &&t) {
                foldDevice(std::move(t), cfg, ctx, collector, result);
            });
    }

    if (cfg.cloud)
        collector.mergeCloud(cfg.cloud->metrics());
    return result;
}

} // namespace pc::harness
