/**
 * @file
 * Parallel == sequential property of the fleet harness: over a grid
 * of {threads} x {devices} x {outage on/off} x {cloud on/off}, the
 * fleet registry snapshot, the series CSV bytes and the anomaly CSV
 * bytes of every parallel run must equal the threads=1 run of the
 * same configuration — the byte-identity contract bench_fleet_telemetry
 * gates at full scale and CI re-checks under ThreadSanitizer.
 *
 * Every device is a clone of one community image runFleet builds
 * before its workers start. The push (no-cloud) cells run the default
 * Combined mode, so at 2, 3 and 8 workers devices clone the shared
 * image while they learn clicks; the cells assert that learning
 * happened, and under ThreadSanitizer a write to the shared image
 * shows up as a race.
 *
 * Labelled `slow` (the 100-device cells dominate); the fast tier
 * keeps fleet_test's sequential coverage.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/fleet.h"
#include "obs/fleet.h"
#include "server/service.h"

namespace pc::harness {
namespace {

const Workbench &
sharedWorkbench()
{
    static const Workbench wb(smallWorkbenchConfig());
    return wb;
}

/** Everything a run cell is compared by. */
struct RunBytes
{
    std::string snapshotJson; ///< Fleet registry (incl. server.* when cloud).
    std::string seriesCsv;
    std::string anomaliesCsv;
    std::string cloudJson; ///< Service registry after accounting replay.
    u64 pairsLearned = 0;  ///< Pairs personalization added, fleet-wide.
    FleetRunResult result;
};

/**
 * Drop the gauges the service records about its *own build timing*
 * (wall ms, derived throughput). They are
 * scheduling-dependent by design — the registry docs mark them
 * console-only, and bench gates exclude them the same way. Each cell
 * builds a fresh service per run, so these are the only lines two
 * otherwise-identical runs may legitimately disagree on. Everything
 * else in the snapshot stays byte-compared.
 */
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

/**
 * One fleet run. The cloud service (when enabled) is built fresh per
 * run — its registry accumulates sync accounting, so sharing one
 * across cells would entangle their bytes.
 */
RunBytes
runCell(unsigned threads, std::size_t devices, bool outage, bool cloud)
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

    FleetRunConfig cfg;
    cfg.devices = devices;
    cfg.months = 3;
    cfg.threads = threads;
    if (outage) {
        cfg.outageStartMonth = 1;
        cfg.outageMonths = 1;
    }
    cfg.cloud = svc.get();

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);

    RunBytes out;
    out.result = runFleet(wb, cfg, collector);

    {
        const auto snap = collector.fleetRegistry().snapshot();
        out.pairsLearned = snap.counterValue("core.search.pairs_learned");
        std::ostringstream os;
        snap.writeJson(os, true);
        out.snapshotJson = scrubTimingLines(os.str());
    }
    {
        std::ostringstream os;
        collector.writeSeriesCsv(os);
        out.seriesCsv = os.str();
    }
    {
        obs::DriftConfig dc;
        dc.warmup = 1;
        std::ostringstream os;
        obs::FleetCollector::writeAnomaliesCsv(
            os, collector.scanAnomalies(dc));
        out.anomaliesCsv = os.str();
    }
    if (svc) {
        std::ostringstream os;
        svc->metrics().snapshot().writeJson(os, true);
        out.cloudJson = scrubTimingLines(os.str());
    }
    return out;
}

class FleetParallelGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool, bool>>
{
};

TEST_P(FleetParallelGrid, EveryThreadCountMatchesSequentialBytes)
{
    const auto [devices, outage, cloud] = GetParam();
    const RunBytes want = runCell(1, devices, outage, cloud);

    EXPECT_EQ(want.result.devices, devices);
    EXPECT_GT(want.result.queries, 0u);
    if (cloud) {
        EXPECT_GT(want.result.cloudSyncs + want.result.cloudSyncFailures,
                  0u)
            << "cloud cells must actually sync";
    } else {
        EXPECT_GT(want.pairsLearned, 0u)
            << "push cells must learn clicks on their image clones";
    }

    for (const unsigned threads : {2u, 3u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const RunBytes got = runCell(threads, devices, outage, cloud);
        EXPECT_EQ(got.snapshotJson, want.snapshotJson)
            << "fleet registry snapshot diverged";
        EXPECT_EQ(got.seriesCsv, want.seriesCsv)
            << "series CSV bytes diverged";
        EXPECT_EQ(got.anomaliesCsv, want.anomaliesCsv)
            << "anomaly CSV bytes diverged";
        EXPECT_EQ(got.cloudJson, want.cloudJson)
            << "service registry (sync accounting replay) diverged";
        EXPECT_EQ(got.pairsLearned, want.pairsLearned);
        EXPECT_EQ(got.result.queries, want.result.queries);
        EXPECT_EQ(got.result.cacheHits, want.result.cacheHits);
        EXPECT_EQ(got.result.degradedServes, want.result.degradedServes);
        EXPECT_EQ(got.result.cloudSyncs, want.result.cloudSyncs);
        EXPECT_EQ(got.result.cloudSyncFailures,
                  want.result.cloudSyncFailures);
    }
}

/**
 * Test-name generator. Defined outside the INSTANTIATE macro: commas
 * in a structured binding or template argument list would otherwise
 * be taken as macro argument separators.
 */
std::string
gridCellName(
    const ::testing::TestParamInfo<FleetParallelGrid::ParamType> &info)
{
    const std::size_t devices = std::get<0>(info.param);
    const bool outage = std::get<1>(info.param);
    const bool cloud = std::get<2>(info.param);
    return "d" + std::to_string(devices) +
           (outage ? "_outage" : "_clean") + (cloud ? "_cloud" : "_push");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FleetParallelGrid,
    ::testing::Combine(::testing::Values(std::size_t(1), std::size_t(7),
                                         std::size_t(100)),
                       ::testing::Bool(),  // outage
                       ::testing::Bool()), // cloud
    gridCellName);

TEST(FleetParallel, ThreadsZeroMeansHardwareConcurrency)
{
    // threads=0 must resolve to *some* pool and still match bytes.
    const RunBytes want = runCell(1, 5, /*outage=*/true, /*cloud=*/false);
    const RunBytes got = runCell(0, 5, /*outage=*/true, /*cloud=*/false);
    EXPECT_EQ(got.snapshotJson, want.snapshotJson);
    EXPECT_EQ(got.seriesCsv, want.seriesCsv);
}

TEST(FleetParallel, MoreThreadsThanDevicesClampsCleanly)
{
    const RunBytes want = runCell(1, 2, /*outage=*/false, /*cloud=*/false);
    const RunBytes got = runCell(16, 2, /*outage=*/false,
                                 /*cloud=*/false);
    EXPECT_EQ(got.snapshotJson, want.snapshotJson);
    EXPECT_EQ(got.seriesCsv, want.seriesCsv);
    EXPECT_EQ(got.result.queries, want.result.queries);
}

} // namespace
} // namespace pc::harness
