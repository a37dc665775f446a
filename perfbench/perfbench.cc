/**
 * @file
 * perfbench — host-time benchmark of the fleet, sync and ingest paths.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * The byte-gated baselines in bench/baselines/ pin sim time (what the
 * modelled phone spends). This program measures the other clock: host
 * wall time, what the C++ spends producing those numbers.
 *
 * Each workload is a closed batch of simulated work run to completion —
 * one harness::runFleet call, or one month-by-month sequence of
 * CloudUpdateService::ingest calls — so throughput is work per host
 * second at the stated batch size, taken from the median batch time
 * scaled to the host-speed probe's nominal speed (see probeMs). One run:
 *
 *  1. sets the workload up several times from --seed (median: setup_s);
 *  2. runs one warm-up batch whose outputs become the reference;
 *  3. runs batches back to back for --seconds (at least kMinBatches),
 *     checking each against the reference.
 *
 * --trace 0 times only the public entry points and prints the end-to-end
 * metrics. --trace 1 alternates those untraced batches with traced
 * replays: this file drives every fleet device through the same public
 * device, stream, service and collector calls runFleet makes, timing
 * each call with steady_clock, and prints the per-layer metrics plus the
 * tracing overhead (traced vs untraced work per second). A replay must
 * reproduce runFleet's series CSV and result counts byte for byte; with
 * --trace 0 one replay still runs, untimed, as that check.
 *
 * stdout carries two lines: a report ({"report": ...} with the seed,
 * machine notes and every named metric with its unit), then the result
 * object {"correct", "attempted", "failed", "metrics"}. Diagnostics go
 * to stderr.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cache_content.h"
#include "core/delta.h"
#include "harness/fleet.h"
#include "harness/workbench.h"
#include "logs/triplets.h"
#include "obs/fleet.h"
#include "server/service.h"
#include "server/work_queue.h"
#include "util/crc32.h"

using namespace pc;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Set-ups per run (setup_s is their median): at least kMinSetups, and
 * more while they have taken less than kSetupBudgetMs in total.
 */
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 9;
constexpr double kSetupBudgetMs = 2000.0;
/** Timed batches per run, however long they take. */
constexpr std::size_t kMinBatches = 3;
/** Versions the sync workload's service publishes before the fleet runs. */
constexpr u32 kSyncVersions = 3;
/** Community months the ingest workload generates and ingests. */
constexpr u32 kIngestMonths = 12;
/** Builder shape of every CloudUpdateService here (at most nproc = 4). */
constexpr u32 kShards = 8;
constexpr u32 kBuildThreads = 3;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** q-quantile with linear interpolation; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Host-speed probe: a fixed mix of string formatting, small
 * allocations, sorted-vector inserts, sorting and map inserts, the
 * operations the simulator's hot paths are made of, sharing no code
 * with the repository. On a shared host the same batch can run at half
 * speed for minutes while a neighbour loads the machine (CPU time tracks
 * wall time, so this is not preemption). Timing the probe around every
 * batch and set-up measures that speed, and the bounded metrics are
 * scaled to the probe's nominal time, so a code change moves them and
 * the neighbours mostly do not.
 */
double
probeMs()
{
    // The probe allocates from its own arena: sharing the process heap
    // would shift glibc's thresholds and make peak RSS depend on how many
    // probes ran.
    alignas(std::max_align_t) static std::byte arena[4 << 20];
    const auto t0 = Clock::now();
    std::pmr::monotonic_buffer_resource pool(
        arena, sizeof(arena), std::pmr::null_memory_resource());
    std::pmr::vector<std::pmr::string> words(&pool);
    words.reserve(20000);
    u64 x = 12345;
    for (int k = 0; k < 20000; ++k) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        words.emplace_back(std::to_string(x >> 20));
    }
    std::pmr::vector<std::pmr::string> sorted(&pool);
    sorted.reserve(2000);
    for (std::size_t k = 0; k < 2000; ++k)
        sorted.insert(std::lower_bound(sorted.begin(), sorted.end(),
                                       words[k]),
                      words[k]);
    std::sort(words.begin(), words.end());
    std::pmr::map<std::pmr::string, int> counts(&pool);
    for (const auto &word : words)
        ++counts[word];
    volatile std::size_t sink = counts.size() + sorted.size();
    (void)sink;
    return msSince(t0);
}

/**
 * probeMs() at full speed on the 4-core Xeon host the benchmark was
 * tuned on. Only a scale factor: it fixes the units, not the ratios.
 */
constexpr double kProbeNominalMs = 12.0;

/** Host `ms` measured between two probes, scaled to nominal speed. */
double
atNominalSpeed(double ms, double probeBefore, double probeAfter)
{
    return ms * kProbeNominalMs / (0.5 * (probeBefore + probeAfter));
}

/** Independent stream `salt` of the workload seed (splitmix64). */
u64
deriveSeed(u64 seed, u64 salt)
{
    u64 x = seed + salt * 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// Per-layer ledger: spans timed from this file around public calls.
// ---------------------------------------------------------------------

enum Layer : std::size_t
{
    kStreamMonth,
    kLoggenMonth,
    kDeviceCtor,
    kInstall,
    kServe,
    kMissDrain,
    kSnapshot,
    kFold,
    kSyncDetached,
    kAccountSync,
    kDigest,
    kIngest,
    kFromLog,
    kContentBuild,
    kMakeDelta,
    kLayerCount
};

/** Metric-name prefix of each layer, in Layer order. */
constexpr std::array<const char *, kLayerCount> kLayerNames = {
    "workload.stream_month", "workload.loggen_month", "device.ctor",
    "device.install",        "device.serve",          "device.miss_drain",
    "obs.snapshot",          "obs.fold",              "server.sync_detached",
    "server.account_sync",   "harness.digest",        "server.ingest",
    "logs.from_log",         "core.content_build",    "server.make_delta",
};

/**
 * Host time per layer, per-call samples for the layers whose tails
 * matter, and the sim-clock components of every served query.
 */
struct Ledger
{
    std::array<double, kLayerCount> ms{};
    std::vector<double> loggenMs, installUs, hitUs, missUs, syncUs, ingestMs,
        buildVsSeq;
    u64 queries = 0;
    u64 hits = 0;
    u64 attempts = 0;
    u64 syncs = 0;
    u64 syncsOk = 0;
    SimTime probe = 0;
    SimTime fetch = 0;
    SimTime render = 0;
    SimTime radio = 0;
    SimTime backoff = 0;

    void
    addQuery(const device::QueryOutcome &q)
    {
        ++queries;
        hits += q.cacheHit ? 1 : 0;
        attempts += q.attempts;
        probe += q.hashLookupTime;
        fetch += q.fetchTime;
        render += q.renderTime;
        radio += q.radioTime;
        backoff += q.backoffTime;
    }

    void
    merge(const Ledger &o)
    {
        for (std::size_t l = 0; l < kLayerCount; ++l)
            ms[l] += o.ms[l];
        const auto append = [](std::vector<double> &to,
                               const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(loggenMs, o.loggenMs);
        append(installUs, o.installUs);
        append(hitUs, o.hitUs);
        append(missUs, o.missUs);
        append(syncUs, o.syncUs);
        append(ingestMs, o.ingestMs);
        append(buildVsSeq, o.buildVsSeq);
        queries += o.queries;
        hits += o.hits;
        attempts += o.attempts;
        syncs += o.syncs;
        syncsOk += o.syncsOk;
        probe += o.probe;
        fetch += o.fetch;
        render += o.render;
        radio += o.radio;
        backoff += o.backoff;
    }
};

/** Run `fn`, add its host time to `layer`, return that time in ms. */
template <typename Fn>
double
timed(Ledger &led, Layer layer, Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    const double ms = msSince(t0);
    led.ms[layer] += ms;
    return ms;
}

/** The workbench's next community month, spanned as loggen. */
workload::SearchLog
nextMonth(harness::Workbench &wb, Ledger &led)
{
    std::optional<workload::SearchLog> log;
    led.loggenMs.push_back(timed(
        led, kLoggenMonth, [&] { log.emplace(wb.nextCommunityMonth()); }));
    return std::move(*log);
}

/** Counted correctness checks; failed / attempted is failed_share. */
struct Checks
{
    u64 attempted = 0;
    u64 failed = 0;

    void
    expect(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s\n", what);
        }
    }
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------------
// Traced fleet replay: runFleet's epoch loop, re-driven call by call.
// ---------------------------------------------------------------------

/**
 * What one replayed device hands to the in-order fold — the fields of
 * runFleet's per-device telemetry that the fleet shapes here use.
 */
struct DeviceOut
{
    std::size_t index = 0;
    std::string classKey;
    std::vector<std::pair<SimTime, obs::MetricsSnapshot>> windows;
    std::unique_ptr<obs::MetricRegistry> registry;
    std::vector<server::CloudUpdateService::SyncAccounting> syncs;
    u64 finalVersion = 0;
    bool anySyncOk = false;
    bool monotone = true;
    u32 tableDigest = 0;
    u64 corruptRejected = 0;
    u64 rejectedDeltas = 0;
    u64 injectedCorruptions = 0;
};

/**
 * Simulate device `i` exactly as runFleet's epoch engine does, through
 * the same public calls in the same order (device seeds, fault plans,
 * chaos skew claims, CommunityOnly mode, detached syncs, miss drains,
 * window snapshots), with a span around each call. Covers the shapes
 * perfbench runs: no health ledgers, herd shedding, sabotage or flash
 * crowd.
 */
DeviceOut
replayDevice(const harness::Workbench &wb,
             const harness::FleetRunConfig &cfg, std::size_t i,
             const workload::UserProfile &profile, Ledger &led)
{
    const bool chaos = cfg.chaos.enabled;
    const u64 devSeed = cfg.seed * 1000003ull + u64(i) * 7919ull;
    DeviceOut out;
    out.index = i;
    out.classKey = harness::userClassKey(profile.cls);
    out.registry = std::make_unique<obs::MetricRegistry>();

    core::PocketSearchConfig psCfg;
    if (chaos)
        psCfg.mode = core::CacheMode::CommunityOnly;
    std::optional<device::MobileDevice> dev;
    timed(led, kDeviceCtor,
          [&] { dev.emplace(wb.universe(), cfg.device, psCfg); });
    if (!cfg.cloud)
        led.installUs.push_back(
            1e3 * timed(led, kInstall, [&] {
                dev->installCommunityCache(wb.communityCache());
            }));
    dev->attachMetrics(out.registry.get());

    std::optional<obs::FlightRecorder> recorder;
    if (chaos) {
        recorder.emplace(u64(i), cfg.recorderCapacity);
        dev->attachFlightRecorder(&*recorder);
    }

    u64 lastVersion = 0;
    if (chaos && cfg.chaos.skewEvery != 0 && cfg.cloud &&
        i % cfg.chaos.skewEvery == 0) {
        const u64 oldest = cfg.cloud->oldestVersion();
        if (oldest > 0) {
            const u64 claim = ((i / cfg.chaos.skewEvery) % 2 == 0)
                                  ? oldest
                                  : (oldest > 1 ? oldest - 1 : oldest);
            dev->setCommunityVersion(claim);
            lastVersion = claim;
        }
    }

    workload::UserStream stream(wb.universe(), profile, devSeed);
    fault::FaultConfig outageCfg = cfg.outageFaults;
    outageCfg.seed = devSeed + 1;
    fault::FaultPlan outagePlan(outageCfg);
    std::optional<fault::FaultPlan> stormPlan;
    std::optional<fault::FaultPlan> chaosPlan;
    if (chaos) {
        fault::FaultConfig storm;
        storm.seed = devSeed + 2;
        storm.radio.exchangeFailureRate = 1.0;
        stormPlan.emplace(storm);
        fault::FaultConfig flips;
        flips.seed = devSeed + 3;
        flips.radio.payloadCorruptRate = cfg.chaos.payloadCorruptRate;
        chaosPlan.emplace(flips);
    }

    for (u32 m = 0; m < cfg.months; ++m) {
        const bool inOutage = cfg.outageMonths > 0 &&
                              m >= cfg.outageStartMonth &&
                              m < cfg.outageStartMonth + cfg.outageMonths;
        const bool inStorm =
            chaos && cfg.chaos.stormMonths > 0 &&
            m >= cfg.chaos.stormStartMonth &&
            m < cfg.chaos.stormStartMonth + cfg.chaos.stormMonths;
        if (chaos)
            dev->attachFaults(inStorm ? &*stormPlan : &*chaosPlan);
        else
            dev->attachFaults(inOutage ? &outagePlan : nullptr);
        const bool radioDark = chaos ? inStorm : inOutage;

        if (cfg.cloud &&
            cfg.cloud->latestVersion() > dev->communityVersion()) {
            server::CloudUpdateService::SyncAccounting acct;
            device::MobileDevice::CommunitySyncResult res;
            led.syncUs.push_back(1e3 * timed(led, kSyncDetached, [&] {
                res = cfg.cloud->syncDetached(*dev, &acct);
            }));
            ++led.syncs;
            if (res.ok) {
                ++led.syncsOk;
                out.anySyncOk = true;
            }
            out.syncs.push_back(acct);
            if (dev->communityVersion() < lastVersion)
                out.monotone = false;
            lastVersion = dev->communityVersion();
        }

        std::vector<workload::StreamEvent> events;
        timed(led, kStreamMonth, [&] {
            stream.setEpoch(m);
            events = stream.month(SimTime(m) * workload::kMonth);
        });
        for (const auto &ev : events) {
            if (ev.time > dev->now())
                dev->advanceTime(ev.time - dev->now());
            device::QueryOutcome q;
            const double ms = timed(led, kServe, [&] {
                q = dev->serveQuery(ev.pair, device::ServePath::PocketSearch);
            });
            (q.cacheHit ? led.hitUs : led.missUs).push_back(1e3 * ms);
            led.addQuery(q);
        }

        if (!radioDark && !dev->missQueue().empty())
            timed(led, kMissDrain, [&] { dev->syncMissQueue(); });
        timed(led, kSnapshot, [&] {
            out.windows.emplace_back(SimTime(m) * workload::kMonth,
                                     out.registry->snapshot());
        });
    }

    dev->attachFaults(nullptr);
    out.finalVersion = dev->communityVersion();
    if (chaos) {
        timed(led, kDigest, [&] {
            out.tableDigest = harness::deviceTableDigest(dev->pocketSearch());
        });
        out.injectedCorruptions = chaosPlan->stats().payloadCorruptions +
                                  stormPlan->stats().payloadCorruptions;
        out.corruptRejected = dev->resilience().corruptDeltas;
        out.rejectedDeltas = dev->resilience().rejectedDeltas;
        recorder->publishMetrics(*out.registry);
        dev->attachFlightRecorder(nullptr);
    }
    return out;
}

/** The latest server version and digest every chaos device must match. */
struct ChaosTarget
{
    bool active = false;
    u64 latest = 0;
    u32 digest = 0;
};

/** runFleet's in-order fold and chaos invariant checker, spanned. */
void
foldDevice(DeviceOut &&t, const harness::FleetRunConfig &cfg,
           const ChaosTarget &target, obs::FleetCollector &collector,
           harness::FleetRunResult &result, Ledger &led)
{
    timed(led, kFold, [&] {
        collector.beginDevice(t.classKey);
        for (const auto &[windowStart, snap] : t.windows)
            collector.collect(windowStart, snap);
        collector.endDevice(*t.registry);
    });

    for (const auto &acct : t.syncs) {
        timed(led, kAccountSync, [&] { cfg.cloud->accountSync(acct); });
        if (acct.ok)
            ++result.cloudSyncs;
        else
            ++result.cloudSyncFailures;
        if (acct.escalated)
            ++result.escalatedFullInstalls;
    }
    result.corruptRejected += t.corruptRejected;
    result.rejectedDeltas += t.rejectedDeltas;

    if (target.active) {
        if (!t.monotone)
            ++result.invariantViolations;
        if (t.corruptRejected != t.injectedCorruptions)
            ++result.invariantViolations;
        if (t.anySyncOk) {
            ++result.devicesVerified;
            if (t.finalVersion != target.latest ||
                t.tableDigest != target.digest)
                ++result.invariantViolations;
        }
    }

    timed(led, kFold, [&] {
        const auto snap = t.registry->snapshot();
        result.queries += snap.counterValue("device.queries");
        result.cacheHits += snap.counterValue("device.cache_hits");
        result.degradedServes +=
            snap.counterValue("device.degraded.serves");
    });
    ++result.devices;
}

/**
 * Replay a whole fleet run: in place for one thread, otherwise the same
 * worker pool, bounded result queue and device-index-ordered fold as
 * runFleet. Worker spans go to per-worker ledgers merged after the join.
 */
harness::FleetRunResult
replayFleet(const harness::Workbench &wb, const harness::FleetRunConfig &cfg,
            obs::FleetCollector &collector, Ledger &led)
{
    ChaosTarget target;
    if (cfg.chaos.enabled && cfg.cloud && cfg.cloud->latestVersion() > 0) {
        target.active = true;
        target.latest = cfg.cloud->latestVersion();
        timed(led, kDigest, [&] {
            target.digest = harness::contentsDigest(
                cfg.cloud->latest().contents, wb.universe());
        });
    }

    workload::PopulationSampler sampler(wb.population());
    const auto profiles = sampler.samplePopulation(cfg.devices);
    const unsigned threads = unsigned(std::clamp<std::size_t>(
        cfg.threads, 1, std::max<std::size_t>(cfg.devices, 1)));

    harness::FleetRunResult result;
    if (threads == 1) {
        for (std::size_t i = 0; i < profiles.size(); ++i)
            foldDevice(replayDevice(wb, cfg, i, profiles[i], led), cfg,
                       target, collector, result, led);
    } else {
        server::WorkQueue<std::size_t> tasks(cfg.devices);
        for (std::size_t i = 0; i < cfg.devices; ++i)
            tasks.push(i);
        tasks.close();

        server::WorkQueue<DeviceOut> results(2 * threads);
        std::vector<Ledger> workerLed(threads);
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned w = 0; w < threads; ++w) {
            pool.emplace_back([&, w] {
                std::size_t i = 0;
                while (tasks.pop(i))
                    results.push(replayDevice(wb, cfg, i, profiles[i],
                                              workerLed[w]));
            });
        }

        std::map<std::size_t, DeviceOut> pending;
        std::size_t next = 0;
        while (next < cfg.devices) {
            DeviceOut t;
            if (!results.pop(t))
                break;
            pending.emplace(t.index, std::move(t));
            for (auto it = pending.find(next); it != pending.end();
                 it = pending.find(next)) {
                foldDevice(std::move(it->second), cfg, target, collector,
                           result, led);
                pending.erase(it);
                ++next;
            }
        }
        results.close();
        for (auto &th : pool)
            th.join();
        for (const auto &l : workerLed)
            led.merge(l);
    }

    if (cfg.cloud)
        collector.mergeCloud(cfg.cloud->metrics());
    return result;
}

/** Every scalar of a fleet result, for byte comparison. */
std::string
resultKey(const harness::FleetRunResult &r)
{
    std::ostringstream os;
    os << "devices=" << r.devices << " queries=" << r.queries
       << " hits=" << r.cacheHits << " degraded=" << r.degradedServes
       << " syncs=" << r.cloudSyncs << " sync_failures="
       << r.cloudSyncFailures << " shed=" << r.cloudSyncsShed
       << " reconnects=" << r.reconnectSyncs
       << " corrupt=" << r.corruptRejected
       << " rejected=" << r.rejectedDeltas
       << " escalated=" << r.escalatedFullInstalls
       << " verified=" << r.devicesVerified
       << " sabotaged=" << r.devicesSabotaged
       << " violations=" << r.invariantViolations << " error=" << r.error;
    return os.str();
}

// ---------------------------------------------------------------------
// Workloads (KVell-style registry: name, shape, batch runner).
// ---------------------------------------------------------------------

/** Which batch a Workload::batch call runs. */
enum class Mode
{
    Reference, ///< Untraced warm-up; its outputs become the reference.
    Plain,     ///< Untraced, timed, checked against the reference.
    Traced,    ///< Spanned replay, timed, checked against the reference.
};

class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** Threads one batch runs its simulated work on. */
    virtual unsigned threads() const = 0;
    /** Threads the traced spans are recorded from (share denominator). */
    virtual unsigned spanThreads() const { return threads(); }
    /** Work units in one batch, and their name. */
    virtual double workPerBatch() const = 0;
    virtual const char *workUnit() const = 0;
    /** Build the inputs from the workload seed (loggen is spanned). */
    virtual void setUp(u64 seed, Ledger &led) = 0;
    /** Run one batch. @return Its host ms, checks excluded. */
    virtual double batch(Mode mode, Ledger &led, Checks &checks) = 0;
    /** Sim-clock and size metrics of the reference batch. */
    virtual Metrics simMetrics() const = 0;
};

/** Shape of one fleet workload. */
struct FleetShape
{
    std::size_t devices = 0;
    u32 months = 0;
    unsigned threads = 1;
    u32 outageStartMonth = 0;
    u32 outageMonths = 0;
    bool sync = false; ///< Cloud service with chaos (else one-shot push).
};

class FleetWorkload final : public Workload
{
  public:
    explicit FleetWorkload(const FleetShape &shape) : shape_(shape) {}

    unsigned threads() const override { return shape_.threads; }
    double
    workPerBatch() const override
    {
        return double(shape_.devices) * double(shape_.months);
    }
    const char *workUnit() const override { return "device_months"; }

    void
    setUp(u64 seed, Ledger &led) override
    {
        svc_.reset(); // references the old workbench's universe
        wb_.reset();
        harness::WorkbenchConfig wc = harness::smallWorkbenchConfig();
        wc.seed = deriveSeed(seed, 1);
        wb_ = std::make_unique<harness::Workbench>(wc);

        cfg_ = harness::FleetRunConfig{};
        cfg_.devices = shape_.devices;
        cfg_.months = shape_.months;
        cfg_.seed = deriveSeed(seed, 2);
        cfg_.threads = shape_.threads;
        cfg_.outageStartMonth = shape_.outageStartMonth;
        cfg_.outageMonths = shape_.outageMonths;
        if (shape_.sync) {
            server::ServiceConfig sc;
            sc.build.shards = kShards;
            sc.build.threads = kBuildThreads;
            svc_ = std::make_unique<server::CloudUpdateService>(
                wb_->universe(), sc);
            for (u32 v = 0; v < kSyncVersions; ++v)
                svc_->ingest(nextMonth(*wb_, led));
            cfg_.cloud = svc_.get();
            cfg_.chaos.enabled = true;
            cfg_.chaos.stormStartMonth = 1;
            cfg_.chaos.stormMonths = 1;
            cfg_.chaos.payloadCorruptRate = 0.05;
            cfg_.chaos.skewEvery = 5;
        }
    }

    double
    batch(Mode mode, Ledger &led, Checks &checks) override
    {
        obs::FleetConfig fc;
        fc.windowWidth = workload::kMonth;
        obs::FleetCollector collector(fc);
        const auto t0 = Clock::now();
        const harness::FleetRunResult run =
            mode == Mode::Traced ? replayFleet(*wb_, cfg_, collector, led)
                                 : harness::runFleet(*wb_, cfg_, collector);
        const double ms = msSince(t0);

        std::ostringstream csv;
        collector.writeSeriesCsv(csv);
        if (mode == Mode::Reference) {
            refCsv_ = csv.str();
            refKey_ = resultKey(run);
            checks.expect(run.error.empty(), "fleet config accepted");
            checks.expect(run.devices == shape_.devices && run.queries > 0,
                          "every device simulated, queries served");
            if (shape_.sync)
                checks.expect(run.invariantViolations == 0 &&
                                  run.devicesVerified > 0,
                              "chaos sync invariants hold");
            captureSim(run, collector);
        } else {
            const bool traced = mode == Mode::Traced;
            checks.expect(csv.str() == refCsv_,
                          traced ? "replay series CSV == runFleet"
                                 : "runFleet series CSV repeats");
            checks.expect(resultKey(run) == refKey_,
                          traced ? "replay result counts == runFleet"
                                 : "runFleet result counts repeat");
        }
        return ms;
    }

    Metrics simMetrics() const override { return sim_; }

  private:
    /** Sim-clock metrics from the reference run's registry. */
    void
    captureSim(const harness::FleetRunResult &run,
               const obs::FleetCollector &collector)
    {
        const double q = double(run.queries);
        const obs::MetricRegistry &reg = collector.fleetRegistry();
        const obs::Histogram *lat =
            reg.findHistogram("device.latency_ms.pocket");
        const obs::Histogram *energy =
            reg.findHistogram("device.energy_mj.pocket");
        sim_ = {
            {"sim_hit_rate", ratio(double(run.cacheHits), q), "ratio"},
            {"sim_latency_p50_ms", lat ? lat->quantile(0.50) : 0.0, "ms"},
            {"sim_latency_p99_ms", lat ? lat->quantile(0.99) : 0.0, "ms"},
            {"sim_energy_per_query_mj", energy ? energy->mean() : 0.0,
             "mJ"},
            {"sim_degraded_rate", ratio(double(run.degradedServes), q),
             "ratio"},
        };
        if (shape_.sync)
            sim_.push_back(
                {"sim_sync_ok_rate",
                 ratio(double(run.cloudSyncs),
                       double(run.cloudSyncs + run.cloudSyncFailures)),
                 "ratio"});
    }

    FleetShape shape_;
    std::unique_ptr<harness::Workbench> wb_;
    std::unique_ptr<server::CloudUpdateService> svc_;
    harness::FleetRunConfig cfg_;
    std::string refCsv_;
    std::string refKey_;
    Metrics sim_;
};

class IngestWorkload final : public Workload
{
  public:
    unsigned threads() const override { return kBuildThreads; }
    /** Every ingest span is one call from the driving thread. */
    unsigned spanThreads() const override { return 1; }
    double workPerBatch() const override { return double(records_); }
    const char *workUnit() const override { return "records"; }

    void
    setUp(u64 seed, Ledger &led) override
    {
        logs_.clear();
        wb_.reset();
        harness::WorkbenchConfig wc = harness::smallWorkbenchConfig();
        wc.seed = deriveSeed(seed, 1);
        wb_ = std::make_unique<harness::Workbench>(wc);
        records_ = 0;
        for (u32 m = 0; m < kIngestMonths; ++m) {
            logs_.push_back(nextMonth(*wb_, led));
            records_ += logs_.back().size();
        }
    }

    double
    batch(Mode mode, Ledger &led, Checks &checks) override
    {
        const bool traced = mode == Mode::Traced;
        server::ServiceConfig sc;
        sc.build.shards = kShards;
        sc.build.threads = kBuildThreads;
        sc.maxVersions = std::max<std::size_t>(sc.maxVersions, logs_.size());

        const auto t0 = Clock::now();
        server::CloudUpdateService svc(wb_->universe(), sc);
        double ingestMs = 0.0;
        for (const auto &log : logs_) {
            if (traced) {
                const double ms =
                    timed(led, kIngest, [&] { svc.ingest(log); });
                led.ingestMs.push_back(ms);
                ingestMs += ms;
            } else {
                svc.ingest(log);
            }
        }
        std::vector<core::CommunityDelta> deltas;
        deltas.reserve(logs_.size());
        for (u64 v = 1; v <= logs_.size(); ++v) {
            if (traced)
                timed(led, kMakeDelta,
                      [&] { deltas.push_back(svc.makeDelta(v - 1, v)); });
            else
                deltas.push_back(svc.makeDelta(v - 1, v));
        }
        const double ms = msSince(t0);

        if (mode == Mode::Reference)
            refEncodings_ = sequentialBuild(sc.policy, led);
        if (traced) {
            const double before = led.ms[kFromLog] + led.ms[kContentBuild];
            sequentialBuild(sc.policy, led);
            led.buildVsSeq.push_back(ratio(
                ingestMs, led.ms[kFromLog] + led.ms[kContentBuild] - before));
        }
        for (u64 v = 1; v <= logs_.size(); ++v) {
            const server::CommunityModel *m = svc.findModel(v);
            checks.expect(m != nullptr &&
                              m->encode() == refEncodings_[v - 1],
                          "sharded model == sequential fromLog + build");
        }

        u32 crc = 0;
        Bytes wire = 0;
        for (const auto &d : deltas) {
            crc = crc32(core::encodeDelta(d), crc);
            if (mode == Mode::Reference)
                wire += core::deltaWireBytes(d, wb_->universe());
        }
        if (mode == Mode::Reference) {
            refDeltaCrc_ = crc;
            wireKib_ = double(wire) / 1024.0;
            checks.expect(records_ > 0 && wire > 0, "logs and deltas exist");
        } else {
            checks.expect(crc == refDeltaCrc_, "deltas repeat byte for byte");
        }
        return ms;
    }

    Metrics
    simMetrics() const override
    {
        return {{"delta_wire_kib", wireKib_, "KiB"}};
    }

  private:
    /**
     * The reference every published version must match: a sequential
     * TripletTable::fromLog + CacheContentBuilder::build of each month.
     */
    std::vector<std::string>
    sequentialBuild(const core::ContentPolicy &policy, Ledger &led) const
    {
        std::vector<std::string> out;
        const core::CacheContentBuilder builder(wb_->universe());
        for (std::size_t v = 0; v < logs_.size(); ++v) {
            server::CommunityModel m;
            m.version = v + 1;
            timed(led, kFromLog,
                  [&] { m.table = logs::TripletTable::fromLog(logs_[v]); });
            timed(led, kContentBuild,
                  [&] { m.contents = builder.build(m.table, policy); });
            out.push_back(m.encode());
        }
        return out;
    }

    std::unique_ptr<harness::Workbench> wb_;
    std::vector<workload::SearchLog> logs_;
    u64 records_ = 0;
    std::vector<std::string> refEncodings_;
    u32 refDeltaCrc_ = 0;
    double wireKib_ = 0.0;
};

struct WorkloadEntry
{
    const char *name;
    std::function<std::unique_ptr<Workload>()> make;
};

/**
 * The named workloads; perfbench/README.md says why each was chosen.
 * Sizes keep one batch well under a second on a 4-core host, so a 10 s
 * run times many batches.
 */
const std::vector<WorkloadEntry> &
workloads()
{
    static const std::vector<WorkloadEntry> entries = {
        {"fleet_install",
         [] {
             FleetShape s;
             s.devices = 100;
             s.months = 1;
             return std::make_unique<FleetWorkload>(s);
         }},
        {"fleet_year",
         [] {
             FleetShape s;
             s.devices = 25;
             s.months = 24;
             s.outageStartMonth = 3;
             s.outageMonths = 2;
             return std::make_unique<FleetWorkload>(s);
         }},
        {"fleet_sync",
         [] {
             FleetShape s;
             s.devices = 200;
             s.months = 6;
             s.threads = 3;
             s.sync = true;
             return std::make_unique<FleetWorkload>(s);
         }},
        {"cloud_ingest", [] { return std::make_unique<IngestWorkload>(); }},
    };
    return entries;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

/** Shortest round-trip decimal of `v` (0 for non-finite values). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
metricsJson(const Metrics &ms)
{
    std::string out = "{";
    for (std::size_t k = 0; k < ms.size(); ++k) {
        if (k)
            out += ", ";
        out += quoted(ms[k].name) + ": {\"value\": " + num(ms[k].value) +
               ", \"unit\": " + quoted(ms[k].unit) + "}";
    }
    return out + "}";
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/** Machine notes: host, compiler, optimisation level, sanitizers. */
std::string
machineJson(unsigned threads)
{
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    sanitized = true;
#endif
#endif
    std::string warning;
    if (!optimized)
        warning = "unoptimized (Debug) build: host times are not "
                  "representative";
    else if (sanitized)
        warning = "sanitizer build: host times are not representative";
    if (!warning.empty())
        std::fprintf(stderr, "perfbench: %s\n", warning.c_str());
    return std::string("{\"nproc\": ") +
           num(double(sysconf(_SC_NPROCESSORS_ONLN))) +
           ", \"compiler\": " + quoted(compiler) +
           ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
           ", \"optimized\": " + (optimized ? "true" : "false") +
           ", \"ndebug\": " + (ndebug ? "true" : "false") +
           ", \"sanitizer\": " + (sanitized ? "true" : "false") +
           ", \"threads\": " + num(double(threads)) +
           ", \"warning\": " + quoted(warning) + "}";
}

/**
 * Per-layer metrics of the traced batches. `.ms` is host time per
 * batch; `.share` divides it by the batch's worker thread-time (traced
 * wall x worker threads). Loggen runs in set-up, so its `.ms` is per
 * generated month and its share is of set-up wall time.
 */
Metrics
perLayerMetrics(const Ledger &led, std::size_t batches, double tracedWallMs,
                unsigned threads, const Ledger &setupLed, double setupWallMs)
{
    Metrics out;
    const double n = double(std::max<std::size_t>(batches, 1));
    const double threadMs = tracedWallMs * double(threads);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
        const std::string name = kLayerNames[l];
        if (l == kLoggenMonth) {
            out.push_back({name + ".ms", median(setupLed.loggenMs), "ms"});
            out.push_back({name + ".share",
                           ratio(setupLed.ms[l], setupWallMs), "share"});
            continue;
        }
        out.push_back({name + ".ms", led.ms[l] / n, "ms"});
        out.push_back({name + ".share", ratio(led.ms[l], threadMs), "share"});
    }
    out.push_back({"device.install.us_p50", quantile(led.installUs, 0.50),
                   "us"});
    out.push_back({"device.install.us_p99", quantile(led.installUs, 0.99),
                   "us"});
    out.push_back({"device.serve_hit.us_p50", quantile(led.hitUs, 0.50),
                   "us"});
    out.push_back({"device.serve_hit.us_p99", quantile(led.hitUs, 0.99),
                   "us"});
    out.push_back({"device.serve_miss.us_p50", quantile(led.missUs, 0.50),
                   "us"});
    out.push_back({"device.serve_miss.us_p99", quantile(led.missUs, 0.99),
                   "us"});
    out.push_back({"server.sync_detached.us_p99", quantile(led.syncUs, 0.99),
                   "us"});
    out.push_back({"server.sync.ok_ratio",
                   ratio(double(led.syncsOk), double(led.syncs)), "ratio"});
    out.push_back({"server.ingest.ms_p50", median(led.ingestMs), "ms"});
    out.push_back({"server.build_vs_seq", median(led.buildVsSeq), "ratio"});

    const double q = double(led.queries);
    out.push_back({"core.probe.sim_ms", ratio(toMillis(led.probe), q), "ms"});
    out.push_back({"simfs.fetch.sim_ms", ratio(toMillis(led.fetch), q), "ms"});
    out.push_back({"device.render.sim_ms", ratio(toMillis(led.render), q),
                   "ms"});
    out.push_back({"radio.exchange.sim_ms", ratio(toMillis(led.radio), q),
                   "ms"});
    out.push_back({"fault.backoff.sim_ms", ratio(toMillis(led.backoff), q),
                   "ms"});
    out.push_back({"radio.attempts_per_query",
                   ratio(double(led.attempts), q), "1/query"});
    out.push_back({"core.hit_ratio", ratio(double(led.hits), q), "ratio"});
    return out;
}

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 0.0;
    int trace = 0;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int k = 1; k + 1 < argc; k += 2) {
        const std::string key = argv[k];
        const char *val = argv[k + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            haveSeed = end != val && *end == '\0' && val[0] != '-';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            haveSeconds = end != val && *end == '\0' &&
                          std::isfinite(a.seconds) && a.seconds > 0;
        } else if (key == "--trace") {
            const std::string t = val;
            if (t != "0" && t != "1")
                return false;
            a.trace = t == "1";
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                             "--seconds S [--trace 0|1]\n");
        return 2;
    }
    const WorkloadEntry *entry = nullptr;
    for (const auto &e : workloads())
        if (args.workload == e.name)
            entry = &e;
    if (entry == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const std::unique_ptr<Workload> w = entry->make();

    // Host time of every set-up and plain batch, raw and scaled to the
    // nominal probe speed (probes run outside the timed regions).
    std::vector<double> probes;
    const auto probe = [&] {
        probes.push_back(probeMs());
        return probes.back();
    };

    Ledger setupLed;
    std::vector<double> setupMs, setupNominalMs;
    double setupWallMs = 0.0;
    while (setupMs.size() < kMinSetups ||
           (setupMs.size() < kMaxSetups && setupWallMs < kSetupBudgetMs)) {
        const double before = probe();
        const auto t0 = Clock::now();
        w->setUp(args.seed, setupLed);
        const double ms = msSince(t0);
        setupWallMs += ms;
        setupMs.push_back(ms);
        setupNominalMs.push_back(atNominalSpeed(ms, before, probe()));
    }

    Checks checks;
    Ledger traced;
    Ledger untraced; // spans of the untimed oracle work only
    w->batch(Mode::Reference, untraced, checks);
    // Set-up plus one batch: later batches repeat the same work, and
    // their count (which depends on host speed) would otherwise show up
    // as allocator growth.
    const double rss = peakRssMb();

    std::vector<double> plainMs, plainNominalMs, tracedMs;
    const auto start = Clock::now();
    while (plainMs.size() < kMinBatches ||
           msSince(start) < args.seconds * 1e3) {
        const double before = probe();
        plainMs.push_back(w->batch(Mode::Plain, untraced, checks));
        plainNominalMs.push_back(
            atNominalSpeed(plainMs.back(), before, probe()));
        if (args.trace)
            tracedMs.push_back(w->batch(Mode::Traced, traced, checks));
    }
    if (!args.trace) {
        Ledger checkOnly;
        w->batch(Mode::Traced, checkOnly, checks);
    }

    const double work = w->workPerBatch();
    const double plainRate = ratio(work, median(plainMs) / 1e3);
    const double nominalRate = ratio(work, median(plainNominalMs) / 1e3);
    const double setupNominalS = median(setupNominalMs) / 1e3;

    Metrics result;
    Metrics report;
    if (args.trace) {
        double tracedWall = 0.0;
        for (const double ms : tracedMs)
            tracedWall += ms;
        result = perLayerMetrics(traced, tracedMs.size(), tracedWall,
                                 w->spanThreads(), setupLed, setupWallMs);
        const double tracedRate = ratio(work, median(tracedMs) / 1e3);
        result.push_back({"trace.untraced_work_per_s", plainRate, "1/s"});
        result.push_back({"trace.traced_work_per_s", tracedRate, "1/s"});
        result.push_back({"trace.overhead_share",
                          1.0 - ratio(tracedRate, plainRate), "share"});
        report = result;
    } else {
        result = {{"work_per_s", nominalRate, "1/s"},
                  {"setup_s", setupNominalS, "s"},
                  {"peak_rss_mb", rss, "MB"}};
        report = {{"setup_s", setupNominalS, "s"},
                  {std::string(w->workUnit()) + "_per_s", nominalRate,
                   "1/s"},
                  {"peak_rss_mb", rss, "MB"},
                  {"raw_setup_s", median(setupMs) / 1e3, "s"},
                  {"raw_" + std::string(w->workUnit()) + "_per_s", plainRate,
                   "1/s"},
                  {"probe_ms_p50", median(probes), "ms"},
                  {"probe_nominal_ms", kProbeNominalMs, "ms"},
                  {"failed_share",
                   ratio(double(checks.failed), double(checks.attempted)),
                   "ratio"},
                  {"batch_ms_p25", quantile(plainMs, 0.25), "ms"},
                  {"batch_ms_p50", median(plainMs), "ms"},
                  {"batch_ms_p75", quantile(plainMs, 0.75), "ms"}};
        for (const auto &m : w->simMetrics())
            report.push_back(m);
    }
    report.push_back({"setups", double(setupMs.size()), "count"});
    report.push_back({"batches", double(plainMs.size()), "count"});
    report.push_back({"work_per_batch", work, w->workUnit()});

    std::printf("{\"report\": {\"workload\": %s, \"seed\": %llu, "
                "\"seconds\": %s, \"trace\": %d, \"machine\": %s, "
                "\"metrics\": %s}}\n",
                quoted(args.workload).c_str(),
                (unsigned long long)args.seed, num(args.seconds).c_str(),
                args.trace, machineJson(w->threads()).c_str(),
                metricsJson(report).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.failed == 0 ? "true" : "false",
                (unsigned long long)checks.attempted,
                (unsigned long long)checks.failed,
                metricsJson(result).c_str());
    std::fflush(stdout);
    return 0;
}
