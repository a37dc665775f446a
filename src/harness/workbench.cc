#include "harness/workbench.h"

#include "util/strings.h"
#include "util/table.h"

namespace pc::harness {

void
printMetricsReport(const std::string &title,
                   const obs::MetricsSnapshot &snap)
{
    AsciiTable counters(title + " — counters");
    counters.header({"counter", "count"});
    for (const auto &[name, value] : snap.counters) {
        if (value == 0)
            continue;
        counters.row({name,
                      strformat("%llu", (unsigned long long)value)});
    }
    counters.print();

    if (!snap.gauges.empty()) {
        AsciiTable gauges(title + " — gauges");
        gauges.header({"gauge", "value"});
        for (const auto &[name, value] : snap.gauges)
            gauges.row({name, strformat("%.3f", value)});
        gauges.print();
    }

    if (!snap.histograms.empty()) {
        AsciiTable hists(title + " — histograms");
        hists.header({"histogram", "count", "mean", "p50", "p90", "p99",
                      "max"});
        for (const auto &h : snap.histograms) {
            if (h.count == 0)
                continue;
            hists.row({h.name,
                       strformat("%llu", (unsigned long long)h.count),
                       strformat("%.3f", h.mean),
                       strformat("%.3f", h.p50),
                       strformat("%.3f", h.p90),
                       strformat("%.3f", h.p99),
                       strformat("%.3f", h.max)});
        }
        hists.print();
    }
}

WorkbenchConfig
smallWorkbenchConfig()
{
    WorkbenchConfig cfg;
    cfg.universe.navResults = 8'000;
    cfg.universe.nonNavResults = 32'000;
    cfg.universe.navHead = 800;
    cfg.universe.nonNavHead = 800;
    // Keep the habit heads proportional to the standard world (6% of
    // the nav pool, 1% of the non-nav pool) so hit-rate behaviour
    // scales down faithfully.
    cfg.universe.habitNavHead = 480;
    cfg.universe.habitNonNavHead = 320;
    cfg.universe.trendStride = 30;
    cfg.communityUsers = 3'000;
    return cfg;
}

Workbench::Workbench(const WorkbenchConfig &cfg)
    : cfg_(cfg)
{
    universe_ = std::make_unique<workload::QueryUniverse>(cfg_.universe);

    workload::LogGenConfig lg;
    lg.seed = cfg_.seed;
    lg.numUsers = cfg_.communityUsers;
    loggen_ = std::make_unique<workload::LogGenerator>(
        *universe_, cfg_.population, lg);

    buildLog_ = std::make_unique<workload::SearchLog>(
        loggen_->generateMonth());
    triplets_ = std::make_unique<logs::TripletTable>(
        logs::TripletTable::fromLog(*buildLog_));

    core::CacheContentBuilder builder(*universe_);
    core::ContentPolicy policy;
    policy.kind = core::ThresholdKind::VolumeShare;
    policy.volumeShare = cfg_.cacheShare;
    cache_ = std::make_unique<core::CacheContents>(
        builder.build(*triplets_, policy));
}

workload::SearchLog
Workbench::nextCommunityMonth()
{
    return loggen_->generateMonth();
}

} // namespace pc::harness
