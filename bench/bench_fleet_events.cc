/**
 * @file
 * Flash-crowd query storm — the one sub-month fleet scenario: the
 * month loop only sees month boundaries, and everything here happens
 * *inside* one. Enabling FlashCrowdConfig runs each device on the
 * flash-crowd schedule (a time-ordered merge of controls and Poisson
 * arrivals, DESIGN.md "Flash-crowd schedule").
 *
 * 150 devices run 2 simulated months with weekly telemetry windows.
 * Per device, query arrivals are a seeded Poisson process (2/hour);
 * week 2 is a burst window at 6x the base rate — the flash crowd. Mid
 * month 1 the radio dies fleet-wide for two days; each device
 * reconnects at its own staggered slot (an hour apart), draining its
 * queued misses the moment coverage returns — a sync storm smeared
 * over ~3 days rather than a single month-boundary thundering herd.
 * The weekly series shows all of it: the burst spike in
 * `device.queries`, the degraded-serve cliff in the outage week, and
 * the `device.missq.synced` drain wave across the reconnect weeks.
 *
 * With --threads T (or PC_THREADS) the scenario reruns at 1, 2, ...,
 * T workers; every point's series CSV and BENCH JSON must be
 * byte-identical to the 1-thread run (exit 2 otherwise). The bench
 * self-gates (exit 1) unless the burst week carries at least 3x the
 * off-burst weekly volume AND the staggered reconnect actually drained
 * miss queues (run.reconnectSyncs > 0).
 *
 * Into $PC_BENCH_OUT (default bench_out/):
 *
 *   BENCH_fleet_events.{json,csv}     scalar report + registry
 *   BENCH_fleet_events_series.csv     weekly fleet time series
 *
 * Both byte-deterministic at any thread count, gated by bench_diff
 * against the committed baseline. Wall times are console-only.
 */

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "harness/fleet.h"
#include "harness/workbench.h"
#include "obs/fleet.h"

using namespace pc;
using namespace pc::harness;

namespace {

/** One flash-crowd run plus everything the gates compare. */
struct EventPoint
{
    unsigned threads = 0;
    double wallMs = 0.0;
    FleetRunResult run;
    std::unique_ptr<obs::FleetCollector> collector;
    std::string seriesCsv;
    std::string reportJson;
};

FleetRunConfig
scenario()
{
    FleetRunConfig cfg;
    cfg.devices = 150;
    cfg.months = 2;
    cfg.flashCrowd.enabled = true;
    cfg.flashCrowd.arrivalsPerHour = 2.0;
    cfg.flashCrowd.burstStart = 2 * workload::kWeek;
    cfg.flashCrowd.burstLen = workload::kWeek;
    cfg.flashCrowd.burstMultiplier = 6.0;
    cfg.flashCrowd.outageStart = workload::kMonth + workload::kWeek;
    cfg.flashCrowd.outageLen = 2ll * 24 * 3600 * kSecond;
    cfg.flashCrowd.reconnectStagger = 60ll * 60 * kSecond;
    return cfg;
}

EventPoint
runAt(const Workbench &wb, FleetRunConfig cfg, unsigned threads)
{
    EventPoint p;
    p.threads = threads;
    cfg.threads = threads;

    // Weekly telemetry windows: the burst and the reconnect storm
    // show up inside the months.
    obs::FleetConfig fc;
    fc.windowWidth = workload::kWeek;
    p.collector = std::make_unique<obs::FleetCollector>(fc);

    const auto t0 = std::chrono::steady_clock::now();
    p.run = runFleet(wb, cfg, *p.collector);
    p.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();

    std::ostringstream os;
    p.collector->writeSeriesCsv(os);
    p.seriesCsv = os.str();
    return p;
}

/** Weekly fleet counter series, by name. */
std::vector<double>
weekly(const EventPoint &p, const char *name)
{
    return p.collector->fleetSeries().counterSeries(name);
}

/**
 * Burst amplification: burst-week queries over the mean of the other
 * month-0 weeks (the outage never touches month 0, so they are the
 * clean baseline).
 */
double
burstAmplification(const std::vector<double> &queries)
{
    if (queries.size() < 4)
        return 0.0;
    const double off = (queries[0] + queries[1] + queries[3]) / 3.0;
    return off > 0 ? queries[2] / off : 0.0;
}

/**
 * The gated report. Built identically at every thread count (no
 * thread counts, no wall times), so the sweep's byte-identity check
 * covers the BENCH JSON too.
 */
obs::BenchReport
buildReport(const EventPoint &p, const FleetRunConfig &cfg)
{
    const auto queries = weekly(p, "device.queries");
    const auto drained = weekly(p, "device.missq.synced");
    double missqDrained = 0;
    for (double v : drained)
        missqDrained += v;
    const double hitRate =
        p.run.queries ? double(p.run.cacheHits) / double(p.run.queries)
                      : 0.0;

    obs::BenchReport report("fleet_events",
                            "Flash-crowd storm — event-driven fleet");
    report.note("devices", strformat("%zu", cfg.devices));
    report.note("months", strformat("%u", cfg.months));
    report.note("burst_week", "2");
    report.note("burst_multiplier",
                strformat("%.0fx", cfg.flashCrowd.burstMultiplier));
    report.metric("queries", double(p.run.queries));
    report.metric("hit_rate", hitRate);
    report.metric("degraded_serves", double(p.run.degradedServes));
    report.metric("burst_amplification", burstAmplification(queries));
    report.metric("reconnect_syncs", double(p.run.reconnectSyncs));
    report.metric("missq_drained", missqDrained);
    if (const auto *h = p.collector->fleetRegistry().findHistogram(
            "device.latency_ms.pocket"))
        report.quantiles(*h, "ms");
    report.attachSnapshot(p.collector->fleetRegistry().snapshot());
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned maxThreads = pc::bench::threadsKnob(argc, argv, 1);
    bench::banner("Flash-crowd storm",
                  "150 devices, Poisson arrivals, 6x burst week, "
                  "mid-month outage + staggered reconnect, 1.." +
                      strformat("%u", maxThreads) + " threads");
    Workbench wb(smallWorkbenchConfig());
    const FleetRunConfig cfg = scenario();

    std::vector<unsigned> sweep;
    for (unsigned t = 1; t <= maxThreads; t *= 2)
        sweep.push_back(t);
    if (sweep.back() != maxThreads)
        sweep.push_back(maxThreads);

    std::vector<EventPoint> points;
    for (unsigned threads : sweep) {
        points.push_back(runAt(wb, cfg, threads));
        std::ostringstream os;
        buildReport(points.back(), cfg).writeJson(os);
        points.back().reportJson = os.str();
    }
    const EventPoint &ref = points.front();

    const auto queries = weekly(ref, "device.queries");
    const auto hits = weekly(ref, "device.cache_hits");
    const auto degraded = weekly(ref, "device.degraded.serves");
    const auto drained = weekly(ref, "device.missq.synced");

    // The weekly shape is the whole point: the month loop would
    // collapse all of this into two month-boundary rows.
    AsciiTable wk("Fleet by week (burst = week 2, outage = week 5)");
    wk.header({"week", "queries", "hit rate", "degraded", "missq drained"});
    for (std::size_t w = 0; w < queries.size(); ++w) {
        wk.row({strformat("%zu", w), strformat("%.0f", queries[w]),
                bench::pct(queries[w] > 0 ? hits[w] / queries[w] : 0.0),
                strformat("%.0f", degraded[w]),
                strformat("%.0f", drained[w])});
    }
    wk.print();

    const double amp = burstAmplification(queries);
    const bool burstVisible = amp >= 3.0;
    const bool stormDrained = ref.run.reconnectSyncs > 0;
    std::printf("\nburst amplification: %.2fx (gate: >= 3x) %s\n", amp,
                burstVisible ? "OK" : "** FAILED **");
    std::printf("staggered reconnect drains: %llu devices %s\n",
                (unsigned long long)ref.run.reconnectSyncs,
                stormDrained ? "OK" : "** FAILED **");

    // Per-thread scaling: wall time console-only, bytes gated.
    bool allIdentical = true;
    AsciiTable scale("Event-driven fleet scaling");
    scale.header({"threads", "wall ms", "speedup", "identical"});
    for (const EventPoint &p : points) {
        const bool same = p.seriesCsv == ref.seriesCsv &&
                          p.reportJson == ref.reportJson;
        allIdentical = allIdentical && same;
        scale.row({strformat("%u", p.threads),
                   strformat("%.1f", p.wallMs),
                   bench::times(ref.wallMs / p.wallMs),
                   p.threads == 1 ? "ref" : (same ? "yes" : "** NO **")});
    }
    scale.print();
    std::printf("\nbyte-identity across the sweep: %s\n",
                allIdentical ? "OK" : "** FAILED **");

    bench::emitReport(buildReport(ref, cfg));
    const std::string path =
        obs::BenchReport::outputDir() + "/BENCH_fleet_events_series.csv";
    std::ofstream f(path);
    f << ref.seriesCsv;
    if (f)
        std::printf("wrote %s\n", path.c_str());

    if (!allIdentical)
        return 2;
    return burstVisible && stormDrained ? 0 : 1;
}
