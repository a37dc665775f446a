/**
 * @file
 * Chaos grid (slow tier): over {bit-flip rate} x {shed budget} cells —
 * each with a correlated outage storm and a version-skew cohort — the
 * fleet invariant checker must stay silent and every parallel run must
 * reproduce the threads=1 bytes (series CSV, fleet snapshot, service
 * registry), extending PR 5's byte-identity contract to chaos runs.
 * A sabotage cell then breaks a device table on purpose and checks
 * the postmortem engine explains every violation with a two-tier
 * causal chain — byte-identically at any thread count. CI re-runs
 * this under ThreadSanitizer and AddressSanitizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "harness/fleet.h"
#include "obs/fleet.h"
#include "server/service.h"

namespace pc::harness {
namespace {

Workbench &
sharedWorkbench()
{
    static Workbench wb(smallWorkbenchConfig());
    return wb;
}

workload::SearchLog
slicedLog(const Workbench &wb, std::size_t n)
{
    workload::SearchLog log(wb.universe());
    const auto &records = wb.buildLog().records();
    log.reserve(std::min(n, records.size()));
    for (std::size_t i = 0; i < records.size() && i < n; ++i)
        log.add(records[i]);
    return log;
}

/**
 * The third log window, generated once: every cell's service must see
 * identical logs or the cells would not be comparable.
 */
const workload::SearchLog &
thirdMonth()
{
    static const workload::SearchLog log =
        sharedWorkbench().nextCommunityMonth();
    return log;
}

/** Everything a cell run is compared by across thread counts. */
struct RunBytes
{
    std::string snapshotJson;
    std::string seriesCsv;
    std::string cloudJson;
    std::string postmortemJson;
    FleetRunResult result;
};

/** Drop scheduling-dependent build-timing gauges (see fleet_parallel). */
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

RunBytes
runCell(unsigned threads, double corruptRate, u64 herdBudget,
        u32 sabotageEvery = 0)
{
    Workbench &wb = sharedWorkbench();

    // Fresh service per run: its registry accumulates sync accounting.
    // maxVersions=2 slides the window so the skew cohort's off-window
    // claim (version 1) really is off the window.
    server::ServiceConfig scfg;
    scfg.build.shards = 4;
    scfg.build.threads = 2;
    scfg.maxVersions = 2;
    auto svc = std::make_unique<server::CloudUpdateService>(
        wb.universe(), scfg);
    svc->ingest(slicedLog(wb, wb.buildLog().size() / 2));
    svc->ingest(wb.buildLog());
    svc->ingest(thirdMonth());

    FleetRunConfig cfg;
    cfg.devices = 24;
    cfg.months = 6;
    cfg.threads = threads;
    cfg.cloud = svc.get();
    cfg.chaos.enabled = true;
    cfg.chaos.stormStartMonth = 1;
    cfg.chaos.stormMonths = 1;
    cfg.chaos.payloadCorruptRate = corruptRate;
    cfg.chaos.skewEvery = 5;
    cfg.chaos.herdBudgetPerMonth = herdBudget;
    cfg.chaos.sabotageEvery = sabotageEvery;

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);

    RunBytes out;
    out.result = runFleet(wb, cfg, collector);
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
    {
        std::ostringstream os;
        svc->metrics().snapshot().writeJson(os, true);
        out.cloudJson = scrubTimingLines(os.str());
    }
    {
        std::ostringstream os;
        obs::JsonWriter w(os, /*pretty=*/true);
        writePostmortem(w, out.result.invariantReports);
        out.postmortemJson = os.str();
    }
    return out;
}

class ChaosGrid
    : public ::testing::TestWithParam<std::tuple<double, u64>>
{
};

TEST_P(ChaosGrid, InvariantsHoldAndParallelRunsMatchSequentialBytes)
{
    const auto [corruptRate, herdBudget] = GetParam();
    const RunBytes want = runCell(1, corruptRate, herdBudget);

    EXPECT_EQ(want.result.invariantViolations, 0u)
        << "chaos corrupted a device the checker caught";
    EXPECT_GT(want.result.devicesVerified, 0u);
    EXPECT_GT(want.result.rejectedDeltas, 0u)
        << "the skew cohort must trip validation";
    if (corruptRate > 0.0)
        EXPECT_GT(want.result.corruptRejected, 0u);
    else
        EXPECT_EQ(want.result.corruptRejected, 0u);
    if (herdBudget > 0)
        EXPECT_GT(want.result.cloudSyncsShed, 0u)
            << "a tight budget must shed part of the reconnect herd";
    else
        EXPECT_EQ(want.result.cloudSyncsShed, 0u);

    for (const unsigned threads : {4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const RunBytes got = runCell(threads, corruptRate, herdBudget);
        EXPECT_EQ(got.snapshotJson, want.snapshotJson);
        EXPECT_EQ(got.seriesCsv, want.seriesCsv);
        EXPECT_EQ(got.cloudJson, want.cloudJson);
        EXPECT_EQ(got.result.invariantViolations,
                  want.result.invariantViolations);
        EXPECT_EQ(got.result.devicesVerified,
                  want.result.devicesVerified);
        EXPECT_EQ(got.result.corruptRejected,
                  want.result.corruptRejected);
        EXPECT_EQ(got.result.rejectedDeltas, want.result.rejectedDeltas);
        EXPECT_EQ(got.result.cloudSyncsShed, want.result.cloudSyncsShed);
        EXPECT_EQ(got.result.escalatedFullInstalls,
                  want.result.escalatedFullInstalls);
        EXPECT_EQ(got.result.queries, want.result.queries);
        EXPECT_EQ(got.result.cacheHits, want.result.cacheHits);
    }
}

/**
 * The deliberately-broken cell: sabotage silently corrupts every 3rd
 * converged device's table. Ground truth for the postmortem engine —
 * violations must equal sabotaged devices exactly, each must come
 * back as an explained DigestMismatch whose causal chain spans both
 * tiers, and the postmortem bytes must not depend on the thread
 * count.
 */
TEST(ChaosSabotage, EveryViolationExplainedAndBytesThreadInvariant)
{
    const RunBytes want = runCell(1, 0.5, 0, /*sabotageEvery=*/3);

    EXPECT_GT(want.result.devicesSabotaged, 0u);
    EXPECT_EQ(want.result.invariantViolations,
              want.result.devicesSabotaged)
        << "every sabotage — and nothing else — must trip the digest "
           "invariant";
    ASSERT_EQ(want.result.invariantReports.size(),
              want.result.invariantViolations);
    for (const InvariantReport &r : want.result.invariantReports) {
        EXPECT_EQ(r.kind, InvariantKind::DigestMismatch);
        EXPECT_TRUE(r.sabotaged);
        EXPECT_NE(r.deviceDigest, r.serverDigest);
        EXPECT_FALSE(r.chain.empty());
        bool dev = false, srv = false, marker = false;
        for (const auto &ev : r.chain) {
            dev = dev || ev.tier == obs::SyncTier::Device;
            srv = srv || ev.tier == obs::SyncTier::Server;
            marker = marker || ev.stage == obs::SyncStage::Sabotage;
        }
        EXPECT_TRUE(dev && srv) << "chain must span both tiers";
        EXPECT_TRUE(marker) << "chain must carry the sabotage marker";
    }

    for (const unsigned threads : {4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const RunBytes got = runCell(threads, 0.5, 0, 3);
        EXPECT_EQ(got.postmortemJson, want.postmortemJson)
            << "postmortem artifact must be byte-identical at any "
               "thread count";
        EXPECT_EQ(got.snapshotJson, want.snapshotJson);
        EXPECT_EQ(got.seriesCsv, want.seriesCsv);
        EXPECT_EQ(got.result.devicesSabotaged,
                  want.result.devicesSabotaged);
    }
}

std::string
gridCellName(const ::testing::TestParamInfo<ChaosGrid::ParamType> &info)
{
    const double rate = std::get<0>(info.param);
    const u64 budget = std::get<1>(info.param);
    return std::string("flip") + (rate > 0.0 ? "50" : "0") + "_budget" +
           std::to_string(budget);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChaosGrid,
    ::testing::Combine(::testing::Values(0.0, 0.5),
                       ::testing::Values(u64(0), u64(6))),
    gridCellName);

} // namespace
} // namespace pc::harness
