/**
 * @file
 * Figure 16 — total time and power while serving 10 consecutive queries
 * through PocketSearch (top trace) vs the 3G radio (bottom trace).
 *
 * Paper anchors: ~4 s at ~900 mW locally vs ~40 s at ~1500 mW over 3G
 * (back-to-back queries keep the 3G radio out of its wake-up ramp after
 * the first query).
 */

#include "bench_common.h"
#include "device/mobile_device.h"
#include "harness/workbench.h"
#include "obs/trace.h"

using namespace pc;
using namespace pc::device;

namespace {

struct TraceSummary
{
    SimTime total = 0;
    MicroJoules energy = 0;
    MilliWatts avgPower = 0;
    MilliWatts peakPower = 0;
};

TraceSummary
runTen(MobileDevice &dev, const core::CacheContents &cache,
       ServePath path, AsciiTable &table)
{
    TraceSummary s;
    for (int q = 0; q < 10; ++q) {
        const auto out =
            dev.serveQuery(cache.pairs[std::size_t(q) * 7].pair, path,
                           false);
        s.total += out.latency;
        s.energy += out.energy;
        SimTime busy = 0;
        for (const auto &seg : out.trace) {
            busy += seg.duration;
            s.peakPower = std::max(s.peakPower, seg.power);
        }
        table.row({strformat("%d", q + 1), servePathName(path),
                   humanTime(out.latency),
                   strformat("%.0f mJ", out.energy / 1000.0),
                   std::string(out.trace.empty() ? "-"
                                                 : out.trace.front().label)});
        // Immediately type the next query: stays inside the 3G tail.
        (void)busy;
    }
    // Average power over the user-visible serving time.
    s.avgPower = s.energy / (double(s.total) / 1e6);
    return s;
}

} // namespace

int
main()
{
    bench::banner("Figure 16",
                  "time & power for 10 consecutive queries");
    harness::Workbench wb;

    AsciiTable per_query("Per-query trace (first segment label shows "
                         "who pays the wake-up ramp)");
    per_query.header({"query #", "path", "latency", "energy",
                      "first segment"});

    obs::Tracer tracer;

    MobileDevice local(wb.universe());
    local.attachTracer(&tracer, "pocketsearch");
    local.installCommunityCache(wb.communityCache());
    const auto ps = runTen(local, wb.communityCache(),
                           ServePath::PocketSearch, per_query);

    MobileDevice radio(wb.universe());
    radio.attachTracer(&tracer, "3g");
    const auto g3 = runTen(radio, wb.communityCache(),
                           ServePath::ThreeG, per_query);
    per_query.print();

    AsciiTable t("Totals: paper vs measured");
    t.header({"metric", "paper", "PocketSearch", "3G"});
    t.row({"total time for 10 queries", "~4 s vs ~40 s",
           humanTime(ps.total), humanTime(g3.total)});
    t.row({"average power while serving", "~900 mW vs ~1500 mW",
           strformat("%.0f mW", ps.avgPower),
           strformat("%.0f mW", g3.avgPower)});
    t.row({"peak power", "-", strformat("%.0f mW", ps.peakPower),
           strformat("%.0f mW", g3.peakPower)});
    t.row({"total energy", "-",
           strformat("%.1f J", ps.energy / 1e6),
           strformat("%.1f J", g3.energy / 1e6)});
    t.print();

    obs::BenchReport report("fig16",
                            "Figure 16 — 10 consecutive queries, "
                            "PocketSearch vs 3G");
    report.note("paper_anchor",
                "~4 s at ~900 mW locally vs ~40 s at ~1500 mW over 3G");
    report.metric("pocketsearch.total_s", double(ps.total) / 1e9, "s");
    report.metric("pocketsearch.avg_power_mw", ps.avgPower, "mW");
    report.metric("pocketsearch.peak_power_mw", ps.peakPower, "mW");
    report.metric("pocketsearch.energy_j", ps.energy / 1e6, "J");
    report.metric("threeg.total_s", double(g3.total) / 1e9, "s");
    report.metric("threeg.avg_power_mw", g3.avgPower, "mW");
    report.metric("threeg.peak_power_mw", g3.peakPower, "mW");
    report.metric("threeg.energy_j", g3.energy / 1e6, "J");
    bench::emitReport(report);

    const std::string trace_path =
        obs::BenchReport::outputDir() + "/BENCH_fig16_trace.json";
    if (tracer.writeChromeTraceFile(trace_path))
        std::printf("wrote %s\n", trace_path.c_str());
    return 0;
}
