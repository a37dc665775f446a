/**
 * @file
 * Fleet telemetry tests: TimeSeries windowing/downsampling/CSV
 * determinism, EWMA drift detection, the FleetCollector merge
 * property (N registries folded == one registry fed the union), and a
 * small end-to-end runFleet with an injected outage that must be
 * byte-deterministic and flagged by the anomaly scan.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/fleet.h"
#include "obs/fleet.h"
#include "obs/timeseries.h"
#include "util/rng.h"
#include "workload/stream.h"

namespace pc::obs {
namespace {

TEST(TimeSeries, WindowsBinByTime)
{
    TimeSeries ts(100);
    ts.counterSlot(ts.windowIndex(10), "q") += 3;
    ts.counterSlot(ts.windowIndex(99), "q") += 2;
    ts.counterSlot(ts.windowIndex(150), "q") += 7;
    ts.accumSlot(ts.windowIndex(10), "e") += 1.5;
    ts.accumSlot(ts.windowIndex(150), "e") += 2.5;
    ts.valueSlot(ts.windowIndex(20), "r").add(0.5);
    ts.valueSlot(ts.windowIndex(30), "r").add(1.5);

    ASSERT_EQ(ts.windows().size(), 2u);
    const SeriesWindow &w0 = ts.windows()[0];
    const SeriesWindow &w1 = ts.windows()[1];
    EXPECT_EQ(w0.start, 0);
    EXPECT_EQ(w1.start, 100);
    EXPECT_EQ(w0.counters.at("q"), 5u);
    EXPECT_EQ(w1.counters.at("q"), 7u);
    EXPECT_DOUBLE_EQ(w0.accums.at("e"), 1.5);
    EXPECT_DOUBLE_EQ(w1.accums.at("e"), 2.5);
    EXPECT_EQ(w0.points.at("r").count(), 2u);
    EXPECT_DOUBLE_EQ(w0.points.at("r").mean(), 1.0);
    EXPECT_DOUBLE_EQ(w0.sketches.at("r").quantile(0.5), 1.0);

    EXPECT_EQ(ts.counterSeries("q"), (std::vector<double>{5.0, 7.0}));
    EXPECT_EQ(ts.accumSeries("e"), (std::vector<double>{1.5, 2.5}));
    EXPECT_EQ(ts.valueMeanSeries("r"),
              (std::vector<double>{1.0, 0.0}));
}

TEST(TimeSeries, DownsampleDoublesWidthAndConservesMass)
{
    TimeSeries ts(10, /*maxWindows=*/4);
    for (SimTime t = 0; t < 160; t += 2) {
        ts.counterSlot(ts.windowIndex(t), "q") += 1;
        ts.valueSlot(ts.windowIndex(t), "v").add(double(t));
    }
    EXPECT_GT(ts.downsamples(), 0u);
    EXPECT_LE(ts.windows().size(), 4u);
    EXPECT_GE(ts.windowWidth(), 40) << "10ns windows doubled at least twice";

    double total = 0.0;
    u64 points = 0;
    for (const auto &w : ts.windows()) {
        EXPECT_EQ(w.start % ts.windowWidth(), 0)
            << "window starts realign to the new width";
        total += double(w.counters.at("q"));
        points += w.points.at("v").count();
        EXPECT_EQ(w.sketches.at("v").count(), w.points.at("v").count())
            << "sketch and stat fold the same observations";
    }
    EXPECT_DOUBLE_EQ(total, 80.0) << "downsampling conserves counts";
    EXPECT_EQ(points, 80u);
}

TEST(TimeSeries, CsvIsDeterministic)
{
    const auto build = [] {
        TimeSeries ts(workload::kMonth);
        Rng rng(5);
        for (int m = 0; m < 6; ++m) {
            const std::size_t w =
                ts.windowIndex(SimTime(m) * workload::kMonth);
            ts.counterSlot(w, "device.queries") += 70 + u64(m);
            ts.accumSlot(w, "device.energy_mj.pocket.sum") +=
                rng.uniform(100.0, 200.0);
            const TimeSeries::ValueSlot hit = ts.valueSlot(w, "device.hit_rate");
            for (int d = 0; d < 10; ++d)
                hit.add(rng.uniform(0.5, 0.8));
        }
        std::ostringstream os;
        ts.writeCsv(os);
        return os.str();
    };
    const std::string a = build();
    const std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("start_s,width_s,kind,name,value,count,mean,p50,"
                     "p90,p99\n"),
              std::string::npos);
    EXPECT_NE(a.find("counter,device.queries"), std::string::npos);
    EXPECT_NE(a.find("value,device.hit_rate"), std::string::npos);
}

TEST(DriftScan, FlagsAStepAndStaysQuietOnFlat)
{
    std::vector<double> flat(12, 0.65);
    std::vector<SimTime> starts;
    for (int i = 0; i < 12; ++i)
        starts.push_back(SimTime(i) * 100);
    EXPECT_TRUE(driftScan("flat", flat, starts).empty());

    // A clean step: the variance floor keeps z finite, the threshold
    // flags the first anomalous window.
    std::vector<double> step = flat;
    step[8] = 0.15;
    step[9] = 0.15;
    const auto found = driftScan("hit_rate", step, starts);
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(found.front().series, "hit_rate");
    EXPECT_EQ(found.front().windowStart, 800);
    EXPECT_DOUBLE_EQ(found.front().value, 0.15);
    EXPECT_LT(found.front().zscore, 0.0) << "a dip has negative z";
}

TEST(DriftScan, WarmupSuppressesEarlyWindows)
{
    std::vector<double> vals{0.5, 5.0, 0.5, 0.5};
    std::vector<SimTime> starts{0, 100, 200, 300};
    DriftConfig cfg;
    cfg.warmup = 3;
    EXPECT_TRUE(driftScan("s", vals, starts, cfg).empty())
        << "the spike lands inside warmup";
    cfg.warmup = 1;
    EXPECT_FALSE(driftScan("s", vals, starts, cfg).empty());
}

/** Feed `n` synthetic device registries; also build their union. */
void
fillRegistry(MetricRegistry &reg, u64 seed, int queries)
{
    Rng rng(seed);
    reg.counter("device.queries").bump(u64(queries));
    reg.counter("device.cache_hits").bump(u64(queries) / 2);
    for (int i = 0; i < queries; ++i)
        reg.histogram("device.latency_ms.pocket")
            .observe(rng.uniform(20.0, 400.0));
}

TEST(FleetCollector, MergingNRegistriesEqualsTheUnion)
{
    FleetConfig cfg;
    cfg.windowWidth = workload::kMonth;
    FleetCollector collector(cfg);

    MetricRegistry unionReg;
    const int kDevices = 8;
    for (int d = 0; d < kDevices; ++d) {
        MetricRegistry reg;
        fillRegistry(reg, u64(d) + 1, 50 + d);
        fillRegistry(unionReg, u64(d) + 1, 50 + d);
        collector.beginDevice(d % 2 ? "low" : "high");
        collector.collect(0, reg.sample());
        collector.endDevice(reg);
    }
    EXPECT_EQ(collector.devices(), std::size_t(kDevices));
    EXPECT_EQ(collector.classDevices().at("low"), 4u);
    EXPECT_EQ(collector.classDevices().at("high"), 4u);

    const auto fleet = collector.fleetRegistry().snapshot();
    const auto want = unionReg.snapshot();
    EXPECT_EQ(fleet.counters, want.counters)
        << "counter sums are exact";
    ASSERT_EQ(fleet.histograms.size(), want.histograms.size());
    const auto &fh = fleet.histograms[0];
    const auto &wh = want.histograms[0];
    EXPECT_EQ(fh.count, wh.count);
    EXPECT_DOUBLE_EQ(fh.sum, wh.sum) << "Welford merge is exact";
    EXPECT_NEAR(fh.mean, wh.mean, 1e-9);
    EXPECT_DOUBLE_EQ(fh.min, wh.min);
    EXPECT_DOUBLE_EQ(fh.max, wh.max);
    // Quantiles: merged sketches vs one straight-line sketch agree
    // within the (additively degraded) documented bound.
    const Histogram *merged =
        collector.fleetRegistry().findHistogram("device.latency_ms.pocket");
    ASSERT_NE(merged, nullptr);
    const double eps =
        2.0 * merged->sketch().epsilon() * (wh.max - wh.min);
    EXPECT_NEAR(fh.p50, wh.p50, eps);
    EXPECT_NEAR(fh.p90, wh.p90, eps);
}

TEST(FleetCollector, WindowedDeltasAndRatios)
{
    FleetConfig cfg;
    cfg.windowWidth = 100;
    FleetCollector collector(cfg);

    // Device A: 10 queries/6 hits in window 0, then 10/2 in window 1.
    MetricRegistry a;
    collector.beginDevice("low");
    a.counter("device.queries").bump(10);
    a.counter("device.cache_hits").bump(6);
    collector.collect(0, a.sample());
    a.counter("device.queries").bump(10);
    a.counter("device.cache_hits").bump(2);
    collector.collect(100, a.sample());
    collector.endDevice(a);

    // Device B: 30 queries/24 hits in window 0 only.
    MetricRegistry b;
    collector.beginDevice("high");
    b.counter("device.queries").bump(30);
    b.counter("device.cache_hits").bump(24);
    collector.collect(0, b.sample());
    collector.endDevice(b);

    const TimeSeries &fleet = collector.fleetSeries();
    EXPECT_EQ(fleet.counterSeries("device.queries"),
              (std::vector<double>{40.0, 10.0}));
    EXPECT_EQ(fleet.counterSeries("device.cache_hits"),
              (std::vector<double>{30.0, 2.0}));
    // Window 0 saw two per-device hit-rate observations: 0.6 and 0.8.
    const auto &w0 = fleet.windows()[0];
    EXPECT_EQ(w0.points.at("device.hit_rate").count(), 2u);
    EXPECT_DOUBLE_EQ(w0.points.at("device.hit_rate").mean(), 0.7);
    // Window 1: only device A, at 0.2.
    EXPECT_DOUBLE_EQ(
        fleet.windows()[1].points.at("device.hit_rate").mean(), 0.2);
    // Class series split the same data.
    EXPECT_EQ(collector.classSeries().at("high").counterSeries(
                  "device.queries"),
              (std::vector<double>{30.0}));
}

TEST(FleetCollector, AnomalyScanFlagsAnInjectedDip)
{
    FleetConfig cfg;
    cfg.windowWidth = 100;
    FleetCollector collector(cfg);

    MetricRegistry reg;
    collector.beginDevice("medium");
    for (int m = 0; m < 12; ++m) {
        const bool outage = (m == 8);
        reg.counter("device.queries").bump(100);
        reg.counter("device.cache_hits").bump(outage ? 10 : 65);
        collector.collect(SimTime(m) * 100, reg.sample());
    }
    collector.endDevice(reg);

    const auto anomalies = collector.scanAnomalies();
    ASSERT_FALSE(anomalies.empty());
    bool sawHitRate = false;
    for (const auto &a : anomalies) {
        if (a.series == "fleet.hit_rate" && a.windowStart == 800)
            sawHitRate = true;
    }
    EXPECT_TRUE(sawHitRate)
        << "the dip window must be flagged on the fleet hit-rate series";

    std::ostringstream os;
    FleetCollector::writeAnomaliesCsv(os, anomalies);
    EXPECT_NE(os.str().find("series,window_start_s,value,expected,z\n"),
              std::string::npos);
    EXPECT_NE(os.str().find("fleet.hit_rate"), std::string::npos);
}

/**
 * Three devices of weekly (sub-month) windows, each window handed to
 * `collect`. From the third window on, every device registers a
 * counter and a histogram it did not have before, so the fold sees a
 * layout change inside a device and identical layouts across devices.
 */
template <class Collect>
void
feedWeeklyFleet(FleetCollector &collector, Collect collect)
{
    const SimTime week = workload::kMonth / 4;
    for (int d = 0; d < 3; ++d) {
        MetricRegistry reg;
        Rng rng(u64(d) + 11);
        collector.beginDevice(d == 1 ? "low" : "heavy");
        for (int w = 0; w < 10; ++w) {
            const u64 q = 5 + rng.below(20);
            reg.counter("device.queries").bump(q);
            reg.counter("device.cache_hits")
                .bump(d == 2 && w == 7 ? 0 : q / 2 + u64(w % 3));
            reg.histogram("device.energy_mj.3g").observe(rng.uniform(1, 9));
            reg.histogram("device.latency_ms.pocket")
                .observe(rng.uniform(20, 400));
            if (w >= 2) {
                reg.counter("device.degraded.serves").bump(u64(w % 2));
                reg.histogram("device.energy_mj.wifi")
                    .observe(rng.uniform(0, 2));
            }
            collect(collector, SimTime(w) * week, reg);
        }
        collector.endDevice(reg);
    }
}

/** Every artifact a collector produces, concatenated. */
std::string
collectorBytes(const FleetCollector &c)
{
    std::ostringstream os;
    c.writeSeriesCsv(os);
    FleetCollector::writeAnomaliesCsv(os, c.scanAnomalies());
    c.fleetRegistry().snapshot().writeJson(os);
    for (const auto &[cls, reg] : c.classRegistries()) {
        os << cls;
        reg.snapshot().writeJson(os);
    }
    for (const auto &[cls, series] : c.classSeries()) {
        os << cls;
        series.writeCsv(os);
    }
    return os.str();
}

TEST(FleetCollector, SamplesAndSnapshotsFoldIdentically)
{
    FleetConfig cfg;
    cfg.windowWidth = workload::kMonth / 4;
    FleetCollector bySample(cfg);
    FleetCollector bySnapshot(cfg);
    feedWeeklyFleet(bySample, [](FleetCollector &c, SimTime t,
                                 const MetricRegistry &reg) {
        c.collect(t, reg.sample());
    });
    feedWeeklyFleet(bySnapshot, [](FleetCollector &c, SimTime t,
                                   const MetricRegistry &reg) {
        c.collect(t, reg.snapshot());
    });

    std::ostringstream series;
    bySample.writeSeriesCsv(series);
    EXPECT_NE(series.str().find("device.energy_mj.wifi.sum"),
              std::string::npos)
        << "the late histogram must reach the series";
    EXPECT_NE(series.str().find("device.degraded.serves"),
              std::string::npos)
        << "the late counter must reach the series";
    EXPECT_EQ(bySample.fleetSeries().windows().size(), 10u);
    EXPECT_EQ(collectorBytes(bySample), collectorBytes(bySnapshot));
}

TEST(FleetCollector, LateMetricsDeltaFromZero)
{
    // A metric registered after a window reads as 0 in the earlier
    // sample, so its first delta is its whole value.
    FleetConfig cfg;
    cfg.windowWidth = 100;
    FleetCollector collector(cfg);
    MetricRegistry reg;
    collector.beginDevice("low");
    reg.counter("device.queries").bump(4);
    collector.collect(0, reg.sample());
    reg.counter("device.queries").bump(6);
    reg.counter("device.cache_hits").bump(3);
    reg.histogram("device.energy_mj.3g").observe(2.5);
    collector.collect(100, reg.sample());
    collector.endDevice(reg);

    const TimeSeries &fleet = collector.fleetSeries();
    EXPECT_EQ(fleet.counterSeries("device.queries"),
              (std::vector<double>{4.0, 6.0}));
    EXPECT_EQ(fleet.counterSeries("device.cache_hits"),
              (std::vector<double>{0.0, 3.0}));
    EXPECT_EQ(fleet.accumSeries("device.energy_mj.3g.sum"),
              (std::vector<double>{0.0, 2.5}));
    EXPECT_DOUBLE_EQ(
        fleet.windows()[1].points.at("device.hit_rate").mean(), 0.5);
    EXPECT_DOUBLE_EQ(
        fleet.windows()[1].points.at("device.energy_mj").mean(), 2.5);
}

TEST(FleetCollectorDeathTest, WindowStartsMustStrictlyAscend)
{
    FleetConfig cfg;
    cfg.windowWidth = 100;
    FleetCollector collector(cfg);
    MetricRegistry reg;
    reg.counter("device.queries").bump(1);
    collector.beginDevice("low");
    collector.collect(100, reg.sample());
    EXPECT_DEATH(collector.collect(100, reg.sample()), "strictly ascend");
    EXPECT_DEATH(collector.collect(0, reg.sample()), "strictly ascend");
    collector.collect(200, reg.sample());
    collector.endDevice(reg);

    // A new device starts its own sequence.
    collector.beginDevice("low");
    collector.collect(0, reg.sample());
    collector.endDevice(reg);
    EXPECT_EQ(collector.devices(), 2u);
}

} // namespace
} // namespace pc::obs

namespace pc::harness {
namespace {

/** One shared small world: Workbench construction dominates runtime. */
const Workbench &
sharedWorkbench()
{
    static const Workbench wb(smallWorkbenchConfig());
    return wb;
}

TEST(RunFleet, DeterministicSeriesAndFlaggedOutage)
{
    const Workbench &wb = sharedWorkbench();
    FleetRunConfig cfg;
    cfg.devices = 6;
    cfg.months = 4;
    cfg.outageStartMonth = 2;
    cfg.outageMonths = 1;

    const auto runOnce = [&](std::string *csv) {
        obs::FleetConfig fc;
        fc.windowWidth = workload::kMonth;
        obs::FleetCollector collector(fc);
        const FleetRunResult r = runFleet(wb, cfg, collector);
        std::ostringstream os;
        collector.writeSeriesCsv(os);
        *csv = os.str();

        EXPECT_EQ(r.devices, cfg.devices);
        EXPECT_GT(r.queries, 0u);
        EXPECT_GT(r.cacheHits, 0u);
        EXPECT_GT(r.degradedServes, 0u)
            << "the outage month must force degraded serves";

        obs::DriftConfig dc;
        dc.warmup = 2;
        const auto anomalies = collector.scanAnomalies(dc);
        bool flagged = false;
        for (const auto &a : anomalies) {
            if (a.series == "fleet.degraded_rate" &&
                a.windowStart == 2 * workload::kMonth)
                flagged = true;
        }
        EXPECT_TRUE(flagged)
            << "outage month absent from the anomaly report";
        return r;
    };

    std::string csvA, csvB;
    const FleetRunResult a = runOnce(&csvA);
    const FleetRunResult b = runOnce(&csvB);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(csvA, csvB) << "fleet series must be byte-deterministic";
}

TEST(RunFleet, ClassSeriesCoverSampledClasses)
{
    const Workbench &wb = sharedWorkbench();
    FleetRunConfig cfg;
    cfg.devices = 5;
    cfg.months = 2;

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);
    runFleet(wb, cfg, collector);

    EXPECT_EQ(collector.devices(), 5u);
    std::size_t total = 0;
    for (const auto &[cls, n] : collector.classDevices()) {
        EXPECT_FALSE(collector.classSeries().at(cls).windows().empty());
        total += n;
    }
    EXPECT_EQ(total, 5u);
    // Fleet registry folded every device's counters.
    const auto snap = collector.fleetRegistry().snapshot();
    EXPECT_GT(snap.counterValue("device.queries"), 0u);
}

} // namespace
} // namespace pc::harness
