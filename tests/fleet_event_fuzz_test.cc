/**
 * @file
 * Robustness and byte pins of the fleet schedules.
 *
 *  - Fuzz: adversarial FleetRunConfig values — zero devices,
 *    zero-length horizons, outage episodes dwarfing the horizon, burst
 *    windows straddling (or entirely past) the end, degenerate rates,
 *    extreme stagger — must produce a clean validation error or a
 *    clean (possibly empty) run, never UB, a hang, or a crash. Same
 *    discipline as jsonparse_fuzz_test: seeded deterministic
 *    generators, every input either rejected with a message or
 *    executed to completion with sane invariants.
 *  - Edge cells: the clamping edges above, plus a cloud sync in the
 *    final epoch, must give the same bytes at 1 and 3 worker threads.
 *  - Golden: a flash-crowd run, with and without a cloud service,
 *    whose series CRC-32 and counters are pinned, so a reordering of
 *    the flash-crowd schedule that reaches any byte shows.
 *
 * The world is tiny (0–6 devices) so the whole file stays in the fast
 * tier; CI also runs it under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "harness/fleet.h"
#include "obs/fleet.h"
#include "server/service.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace pc::harness {
namespace {

const Workbench &
sharedWorkbench()
{
    static const Workbench wb(smallWorkbenchConfig());
    return wb;
}

/**
 * Run one config to completion. Either validation refuses it (clean
 * error, untouched collector) or the run finishes with coherent
 * scalars. Returns the error string for callers asserting a verdict.
 */
std::string
mustRunClean(const FleetRunConfig &cfg, SimTime window = workload::kMonth)
{
    obs::FleetConfig fc;
    fc.windowWidth = window;
    obs::FleetCollector collector(fc);
    const FleetRunResult r = runFleet(sharedWorkbench(), cfg, collector);
    if (!r.error.empty()) {
        EXPECT_EQ(r.devices, 0u);
        EXPECT_EQ(collector.devices(), 0u)
            << "refused run touched the collector";
        return r.error;
    }
    EXPECT_EQ(r.devices, cfg.devices);
    EXPECT_EQ(collector.devices(), cfg.devices);
    EXPECT_GE(r.queries, r.cacheHits);
    // The series must serialize without tripping assertions.
    std::ostringstream os;
    collector.writeSeriesCsv(os);
    return "";
}

TEST(FleetEventFuzz, NamedAdversarialShapes)
{
    const SimTime horizon2m = 2 * workload::kMonth;

    {
        // Zero devices, with and without flash crowd.
        FleetRunConfig cfg;
        cfg.devices = 0;
        cfg.months = 2;
        EXPECT_EQ(mustRunClean(cfg), "");
        cfg.flashCrowd.enabled = true;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Zero-length horizon, with and without flash crowd.
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.months = 0;
        EXPECT_EQ(mustRunClean(cfg), "");
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour = 5.0;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Outage vastly longer than the horizon.
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.months = 2;
        cfg.outageStartMonth = 0;
        cfg.outageMonths = 100000;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Flash-crowd outage longer than the horizon, reconnect
        // stagger pushing every reconnect past the end.
        FleetRunConfig cfg;
        cfg.devices = 3;
        cfg.months = 2;
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour = 2.0;
        cfg.flashCrowd.outageStart = workload::kMonth / 3;
        cfg.flashCrowd.outageLen = 50 * workload::kMonth;
        cfg.flashCrowd.reconnectStagger = 100 * workload::kMonth;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Burst window straddling the end of the horizon; also one
        // starting exactly at the end and one entirely past it.
        for (const SimTime start :
             {horizon2m - workload::kWeek, horizon2m,
              horizon2m + workload::kMonth}) {
            FleetRunConfig cfg;
            cfg.devices = 2;
            cfg.months = 2;
            cfg.flashCrowd.enabled = true;
            cfg.flashCrowd.arrivalsPerHour = 4.0;
            cfg.flashCrowd.burstStart = start;
            cfg.flashCrowd.burstLen = 3 * workload::kMonth;
            cfg.flashCrowd.burstMultiplier = 20.0;
            EXPECT_EQ(mustRunClean(cfg), "");
        }
    }
    {
        // Degenerate rates: zero arrivals (silent fleet), zero burst
        // multiplier (burst window goes quiet instead of loud).
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.months = 1;
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour = 0.0;
        EXPECT_EQ(mustRunClean(cfg), "");
        cfg.flashCrowd.arrivalsPerHour = 6.0;
        cfg.flashCrowd.burstMultiplier = 0.0;
        cfg.flashCrowd.burstStart = workload::kWeek;
        cfg.flashCrowd.burstLen = workload::kWeek;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Invalid shapes must be refused with a message, not UB.
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.chaos.enabled = true; // chaos without a cloud service
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.chaos.enabled = false;
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour = -1.0;
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.flashCrowd.arrivalsPerHour =
            std::numeric_limits<double>::quiet_NaN();
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.flashCrowd.arrivalsPerHour = 1.0;
        cfg.flashCrowd.burstMultiplier =
            std::numeric_limits<double>::infinity();
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.flashCrowd.burstMultiplier = 1.0;
        cfg.flashCrowd.outageStart = -5;
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.flashCrowd.outageStart = 0;
        cfg.outageMonths = 1; // epoch episode + flash crowd
        EXPECT_NE(mustRunClean(cfg).find("epoch outage episode"),
                  std::string::npos);

        // Chaos + flash crowd, with the cloud chaos needs attached so
        // the flash-crowd rule is the one that refuses.
        server::CloudUpdateService svc(sharedWorkbench().universe());
        cfg.outageMonths = 0;
        cfg.cloud = &svc;
        cfg.chaos.enabled = true;
        EXPECT_NE(mustRunClean(cfg).find("flash crowd and chaos"),
                  std::string::npos);
    }
}

TEST(FleetEventFuzz, SeededRandomConfigsNeverMisbehave)
{
    // 120 seeded random configs. Values are drawn from ranges that
    // include every clamping edge (0, exactly the horizon, far past
    // it). Each either validates cleanly and runs to completion, or is
    // refused with a message.
    u64 ran = 0, refused = 0;
    for (u64 seed = 1; seed <= 120; ++seed) {
        Rng rng(seed * 0x2545F4914F6CDD1Dull);
        FleetRunConfig cfg;
        cfg.seed = seed;
        cfg.devices = std::size_t(rng.below(5)); // 0..4
        cfg.months = u32(rng.below(4));          // 0..3
        cfg.threads = unsigned(rng.below(3));    // 0 = hardware
        cfg.outageStartMonth = u32(rng.below(4));
        cfg.outageMonths = u32(rng.below(3)) == 0 ? u32(rng.below(200))
                                                  : u32(rng.below(3));
        SimTime window = workload::kMonth;
        if (rng.below(2) == 0) {
            cfg.flashCrowd.enabled = true;
            cfg.outageMonths = 0;
            cfg.flashCrowd.arrivalsPerHour = double(rng.below(12));
            cfg.flashCrowd.burstMultiplier = double(rng.below(30));
            const SimTime horizon =
                SimTime(cfg.months) * workload::kMonth;
            const auto pick = [&](SimTime scale) {
                switch (rng.below(4)) {
                  case 0: return SimTime(0);
                  case 1: return scale / 2;
                  case 2: return scale;
                  default: return scale * 3 + SimTime(rng.below(1000));
                }
            };
            cfg.flashCrowd.burstStart = pick(horizon);
            cfg.flashCrowd.burstLen = pick(horizon);
            cfg.flashCrowd.outageStart = pick(horizon);
            cfg.flashCrowd.outageLen = pick(horizon);
            cfg.flashCrowd.reconnectStagger =
                pick(workload::kWeek);
            window = rng.below(2) == 0 ? workload::kMonth : workload::kWeek;
        }
        const std::string err = mustRunClean(cfg, window);
        if (err.empty())
            ++ran;
        else
            ++refused;
    }
    // The generator keeps every random config structurally valid
    // (invalid shapes are pinned by NamedAdversarialShapes), so all
    // 120 must have executed.
    EXPECT_EQ(ran, 120u);
    EXPECT_EQ(refused, 0u);
}

// ---------------------------------------------------------------------
// Edge cells: each clamping edge gives the same bytes at 1 and 3
// worker threads.

/** Scheduling-dependent service build gauges (console-only by doc). */
std::string
scrubTimingLines(const std::string &json)
{
    static const char *const kTiming[] = {
        "server.build.wall_ms",
        "server.ingest.records_per_s",
    };
    std::string out;
    out.reserve(json.size());
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        bool timing = false;
        for (const char *name : kTiming)
            timing = timing || line.find(name) != std::string::npos;
        if (!timing) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

/** What two runs of one config are compared by. */
struct RunBytes
{
    std::string snapshotJson; ///< Fleet registry (incl. server.*).
    std::string seriesCsv;
    std::string cloudJson; ///< Service registry after accounting replay.
    FleetRunResult result;
};

/**
 * Run `cfg` on `threads` workers. With `cloud`, a fresh service is
 * built per run: its registry accumulates sync accounting, so sharing
 * one across runs would entangle their bytes.
 */
RunBytes
runAt(FleetRunConfig cfg, unsigned threads, bool cloud = false,
      SimTime window = workload::kMonth)
{
    const Workbench &wb = sharedWorkbench();
    std::unique_ptr<server::CloudUpdateService> svc;
    if (cloud) {
        server::ServiceConfig scfg;
        scfg.build.shards = 4;
        scfg.build.threads = 2;
        svc = std::make_unique<server::CloudUpdateService>(wb.universe(),
                                                           scfg);
        svc->ingest(wb.buildLog());
    }
    cfg.threads = threads;
    cfg.cloud = svc.get();

    obs::FleetConfig fc;
    fc.windowWidth = window;
    obs::FleetCollector collector(fc);
    RunBytes out;
    out.result = runFleet(wb, cfg, collector);
    EXPECT_EQ(out.result.error, "");
    EXPECT_EQ(collector.devices(), cfg.devices);
    {
        std::ostringstream os;
        collector.fleetRegistry().snapshot().writeJson(os, true);
        out.snapshotJson = scrubTimingLines(os.str());
    }
    {
        std::ostringstream os;
        collector.writeSeriesCsv(os);
        out.seriesCsv = os.str();
    }
    if (svc) {
        std::ostringstream os;
        svc->metrics().snapshot().writeJson(os, true);
        out.cloudJson = scrubTimingLines(os.str());
    }
    return out;
}

/** Run at 1 and 3 threads; every compared byte must match. */
RunBytes
runThreadInvariant(const FleetRunConfig &cfg, bool cloud = false,
                   SimTime window = workload::kMonth)
{
    const RunBytes want = runAt(cfg, 1, cloud, window);
    const RunBytes got = runAt(cfg, 3, cloud, window);
    EXPECT_EQ(got.snapshotJson, want.snapshotJson)
        << "fleet registry snapshot diverged";
    EXPECT_EQ(got.seriesCsv, want.seriesCsv) << "series CSV diverged";
    EXPECT_EQ(got.cloudJson, want.cloudJson)
        << "service registry (sync accounting replay) diverged";
    EXPECT_EQ(got.result.devices, want.result.devices);
    EXPECT_EQ(got.result.queries, want.result.queries);
    EXPECT_EQ(got.result.cacheHits, want.result.cacheHits);
    EXPECT_EQ(got.result.degradedServes, want.result.degradedServes);
    EXPECT_EQ(got.result.cloudSyncs, want.result.cloudSyncs);
    EXPECT_EQ(got.result.cloudSyncFailures,
              want.result.cloudSyncFailures);
    EXPECT_EQ(got.result.reconnectSyncs, want.result.reconnectSyncs);
    return want;
}

TEST(FleetEdgeCells, ZeroDeviceFleetIsACleanEmptyRun)
{
    FleetRunConfig cfg;
    cfg.devices = 0;
    cfg.months = 3;
    const RunBytes r = runThreadInvariant(cfg);
    EXPECT_EQ(r.result.devices, 0u);
    EXPECT_EQ(r.result.queries, 0u);
    EXPECT_EQ(r.seriesCsv.find("device.queries"), std::string::npos)
        << "empty run must not invent series rows";
}

TEST(FleetEdgeCells, ZeroMonthHorizonFoldsDevicesWithNoWindows)
{
    FleetRunConfig cfg;
    cfg.devices = 3;
    cfg.months = 0;
    const RunBytes r = runThreadInvariant(cfg);
    EXPECT_EQ(r.result.devices, 3u);
    EXPECT_EQ(r.result.queries, 0u);
}

TEST(FleetEdgeCells, OutageLongerThanHorizonClampsCleanly)
{
    FleetRunConfig cfg;
    cfg.devices = 5;
    cfg.months = 2;
    cfg.outageStartMonth = 0;
    cfg.outageMonths = 100; // dwarfs the horizon
    const RunBytes r = runThreadInvariant(cfg);
    EXPECT_GT(r.result.degradedServes, 0u)
        << "whole-run outage must degrade serves";
}

TEST(FleetEdgeCells, CloudSyncInFinalEpoch)
{
    // months=1: the only sync epoch IS the final epoch; the miss-queue
    // drain and window snapshot follow it with no later month to paper
    // over ordering bugs.
    FleetRunConfig cfg;
    cfg.devices = 6;
    cfg.months = 1;
    cfg.outageStartMonth = 1;
    cfg.outageMonths = 1;
    const RunBytes r = runThreadInvariant(cfg, /*cloud=*/true);
    EXPECT_GT(r.result.cloudSyncs + r.result.cloudSyncFailures, 0u)
        << "final-epoch cell must actually sync";
}

TEST(FleetEdgeCells, FlashCrowdBurstWindowStraddlingEndClamps)
{
    FleetRunConfig cfg;
    cfg.devices = 4;
    cfg.months = 1;
    cfg.flashCrowd.enabled = true;
    cfg.flashCrowd.arrivalsPerHour = 3.0;
    cfg.flashCrowd.burstMultiplier = 8.0;
    // Burst opens mid-month and nominally runs far past the horizon.
    cfg.flashCrowd.burstStart = workload::kMonth / 2;
    cfg.flashCrowd.burstLen = 40 * workload::kMonth;
    const RunBytes r = runThreadInvariant(cfg);
    EXPECT_EQ(r.result.devices, 4u);
    EXPECT_GT(r.result.queries, 0u);
}

// ---------------------------------------------------------------------
// Golden flash-crowd run.

/**
 * 4 devices x 2 months with a 6x burst week, a one-week outage, a
 * one-day reconnect stagger and weekly windows, pinned by series
 * CRC-32 and counters at 1 and 3 worker threads. Device 0 reconnects
 * exactly on a window boundary, so the window-before-reconnect tie
 * decides which week its miss-queue drain lands in. The values were
 * recorded by an independent event-queue implementation of the same
 * schedule.
 */
TEST(FleetEventGolden, FlashCrowdBytesArePinned)
{
    FleetRunConfig cfg;
    cfg.devices = 4;
    cfg.months = 2;
    cfg.flashCrowd.enabled = true;
    cfg.flashCrowd.arrivalsPerHour = 3.0;
    cfg.flashCrowd.burstStart = 2 * workload::kWeek;
    cfg.flashCrowd.burstLen = workload::kWeek;
    cfg.flashCrowd.burstMultiplier = 6.0;
    cfg.flashCrowd.outageStart = workload::kMonth + workload::kWeek;
    cfg.flashCrowd.outageLen = workload::kWeek;
    cfg.flashCrowd.reconnectStagger = 24ll * 3600 * kSecond;
    const RunBytes r =
        runThreadInvariant(cfg, /*cloud=*/false, workload::kWeek);
    EXPECT_EQ(crc32(r.seriesCsv), 0xf8a9bddbu);
    EXPECT_EQ(r.result.queries, 26057u);
    EXPECT_EQ(r.result.reconnectSyncs, 4u);

    // With a cloud service and the outage opening at t = 0, the
    // month-0 sync runs only if month begin precedes the outage at
    // that instant (otherwise it fails and retries in month 1).
    cfg.flashCrowd.outageStart = 0;
    const RunBytes c =
        runThreadInvariant(cfg, /*cloud=*/true, workload::kWeek);
    EXPECT_EQ(crc32(c.seriesCsv), 0xcab4dabdu);
    EXPECT_EQ(c.result.queries, 26057u);
    EXPECT_EQ(c.result.reconnectSyncs, 4u);
    EXPECT_EQ(c.result.cloudSyncs, 4u);
    EXPECT_EQ(c.result.cloudSyncFailures, 0u);
}

} // namespace
} // namespace pc::harness
