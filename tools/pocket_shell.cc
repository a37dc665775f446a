/**
 * @file
 * pocket_shell — an interactive PocketSearch phone in your terminal.
 *
 * Builds the small experiment world and drops into a REPL over the
 * simulated device. Commands:
 *
 *   type <prefix>     auto-suggest box for a partial query (Figure 1)
 *   search <query>    serve a full query (cache first, 3G on a miss)
 *   click <n>         click result #n of the last search (teaches the
 *                     personalization component / re-ranks)
 *   stats             cache + device counters + metrics registry
 *   trace <n> [file]  serve the n-th cached pair end to end and show
 *                     its trace spans with args plus a per-category
 *                     duration rollup (optionally export Chrome JSON)
 *   explain           run one community sync with the flight recorder
 *                     attached and print its causal event chain plus
 *                     the per-stage critical-path breakdown
 *   update            run the nightly Figure 14 sync against fresh logs
 *   seed <n>          jump to the n-th most popular community query
 *   health [n] [m] [t] [storm]  fleet health observatory: run an
 *                     n-device x m-month fleet (cloud sync attached)
 *                     on t threads with busy-time ledgers on, then
 *                     print the SLO scoreboard (error budgets + burn
 *                     rates) and the bottleneck ranking; storm != 0
 *                     injects a full-run radio outage so the
 *                     bottleneck flips and the availability budget
 *                     burns
 *   fleet [n] [m] [t] simulate a fleet of n devices for m months (with
 *                     an injected outage) on t worker threads and
 *                     print the telemetry roll-up + drift-scan
 *                     anomalies (same bytes at any t)
 *   server [s] [t]    run the cloud update service with s shards and
 *                     t worker threads: mine two model versions and
 *                     print shard stats + delta sync sizes
 *   chaos [n] [m] [f] [b] [s]  chaos-test the sync path: n devices x
 *                     m months under a month-1 outage storm, payload
 *                     bit-flip rate f, shed budget b, with a
 *                     version-skew cohort; s > 0 sabotages every s-th
 *                     device's table to prove the postmortem engine
 *                     explains violations; prints what the resilience
 *                     machinery did, whether the sync invariants held,
 *                     and the causal postmortem of any violation
 *   help / quit
 *
 * Also usable non-interactively:  echo "search foo" | pocket_shell
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "core/cache_manager.h"
#include "core/delta.h"
#include "device/mobile_device.h"
#include "harness/fleet.h"
#include "harness/postmortem.h"
#include "harness/workbench.h"
#include "server/service.h"
#include "store/engine.h"
#include "obs/causal.h"
#include "obs/fleet.h"
#include "obs/health.h"
#include "obs/slo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/zipf.h"

using namespace pc;

namespace {

void
help()
{
    std::printf(
        "commands:\n"
        "  type <prefix>   auto-suggest with instant results\n"
        "  search <query>  serve a query end to end\n"
        "  click <n>       click result #n of the last search\n"
        "  seed <n>        print the n-th most popular cached query\n"
        "  stats           cache/device counters + metrics registry\n"
        "  trace <n> [f]   serve cached pair #n and print its spans,\n"
        "                  args and per-category duration rollup\n"
        "                  (write Chrome trace JSON to file f if given)\n"
        "  explain         one community sync under the flight\n"
        "                  recorder: causal chain + critical path\n"
        "  update          nightly community sync (Figure 14)\n"
        "  store [n] [ops] exercise the pc::store slab engine: n\n"
        "                  records, ops zipf-skewed ops; prints\n"
        "                  lookup latency, page-cache hit rate and\n"
        "                  GC statistics\n"
        "  health [n] [m] [t] [storm]  fleet health observatory: SLO\n"
        "                  scoreboard (error budgets, burn rates) and\n"
        "                  bottleneck ranking of an n-device fleet over\n"
        "                  m months on t threads; storm != 0 injects a\n"
        "                  full-run radio outage (watch the bottleneck\n"
        "                  flip and the availability budget burn)\n"
        "  fleet [n] [m] [t]  telemetry roll-up of an n-device fleet\n"
        "                  over m months with an injected outage, on t\n"
        "                  worker threads (0 = all cores; the output\n"
        "                  does not depend on t)\n"
        "  server [s] [t]  cloud update service: mine two community\n"
        "                  model versions with s shards x t threads,\n"
        "                  print shard stats and delta sync sizes\n"
        "  chaos [n] [m] [f] [b] [s]  chaos-test the sync path: n\n"
        "                  devices x m months, month-1 outage storm,\n"
        "                  payload bit-flip rate f (0..1), shed budget\n"
        "                  b devices/month (0 = off), plus a version-\n"
        "                  skew cohort; sabotage every s-th device\n"
        "                  (0 = off) to exercise the postmortem\n"
        "                  engine; reports invariant status and the\n"
        "                  causal postmortem of any violation\n"
        "  help, quit\n");
}

/**
 * The `fleet` command: simulate a small fleet against the already
 * built workbench world, with an outage injected halfway, and print
 * the monthly roll-up plus what the drift scan flags.
 */
void
runFleetCommand(const harness::Workbench &wb, std::size_t devices,
                u32 months, unsigned threads)
{
    harness::FleetRunConfig cfg;
    cfg.devices = devices;
    cfg.months = months;
    cfg.outageStartMonth = months / 2;
    cfg.outageMonths = 1;
    cfg.threads = threads;

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);
    std::printf("simulating %zu devices x %u months (outage in month "
                "%u, %u thread%s)...\n",
                devices, months, cfg.outageStartMonth, threads,
                threads == 1 ? "" : "s");
    const auto run = harness::runFleet(wb, cfg, collector);
    std::printf("served %llu queries across %zu devices\n",
                (unsigned long long)run.queries, run.devices);

    const auto queries =
        collector.fleetSeries().counterSeries("device.queries");
    const auto hits =
        collector.fleetSeries().counterSeries("device.cache_hits");
    const auto stale =
        collector.fleetSeries().counterSeries("device.degraded.stale");
    const auto degraded = collector.fleetSeries().counterSeries(
        "device.degraded.serves");
    AsciiTable monthly("fleet by month");
    monthly.header(
        {"month", "queries", "hit rate", "degraded", "stale"});
    for (std::size_t m = 0; m < queries.size(); ++m) {
        const double hr = queries[m] > 0 ? hits[m] / queries[m] : 0.0;
        monthly.row({strformat("%zu", m), strformat("%.0f", queries[m]),
                     strformat("%.1f%%", 100 * hr),
                     strformat("%.0f", degraded[m]),
                     strformat("%.0f", stale[m])});
    }
    monthly.print();

    obs::DriftConfig dc;
    dc.warmup = months > 4 ? 3u : 2u;
    const auto anomalies = collector.scanAnomalies(dc);
    if (anomalies.empty()) {
        std::printf("drift scan: nothing flagged\n");
        return;
    }
    AsciiTable at("top anomalies (EWMA z-score)");
    at.header({"series", "month", "value", "expected", "z"});
    std::size_t shown = 0;
    for (const auto &a : anomalies) {
        if (++shown > 5)
            break;
        at.row({a.series,
                strformat("%lld",
                          (long long)(a.windowStart / workload::kMonth)),
                strformat("%.4g", a.value), strformat("%.4g", a.expected),
                strformat("%+.1f", a.zscore)});
    }
    at.print();
    std::printf("devices by class:");
    for (const auto &[cls, n] : collector.classDevices())
        std::printf(" %s=%zu", cls.c_str(), n);
    std::printf("\n");
}

/**
 * The `health` command: the fleet health observatory, interactively.
 * Runs a fleet with busy-time ledgers and a cloud service attached,
 * evaluates the default SLO set over the monthly series, and prints
 * the scoreboard plus the analyzer's bottleneck ranking. With storm,
 * a full-run radio outage shows the saturation flip live.
 */
void
runHealthCommand(const harness::Workbench &wb, std::size_t devices,
                 u32 months, unsigned threads, bool storm)
{
    server::ServiceConfig scfg;
    scfg.build.shards = 4;
    scfg.build.threads = 2;
    scfg.healthAccounting = true;
    server::CloudUpdateService svc(wb.universe(), scfg);
    svc.ingest(wb.buildLog());

    harness::FleetRunConfig cfg;
    cfg.devices = devices;
    cfg.months = months;
    cfg.threads = threads;
    cfg.cloud = &svc;
    cfg.health = true;
    if (storm) {
        cfg.outageStartMonth = 0;
        cfg.outageMonths = months;
        cfg.outageFaults.radio.outageShare = 0.999;
        cfg.outageFaults.radio.meanOutageDuration =
            10ll * workload::kMonth;
        cfg.outageFaults.radio.exchangeFailureRate = 0.0;
        cfg.outageFaults.radio.latencySpikeRate = 0.0;
    }

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);
    std::printf("simulating %zu devices x %u months%s with health "
                "ledgers on (%u thread%s)...\n",
                devices, months, storm ? " under a radio storm" : "",
                threads, threads == 1 ? "" : "s");
    const auto run = harness::runFleet(wb, cfg, collector);
    std::printf("served %llu queries, %llu cloud syncs (%llu failed)\n",
                (unsigned long long)run.queries,
                (unsigned long long)run.cloudSyncs,
                (unsigned long long)run.cloudSyncFailures);

    const obs::MetricsSnapshot snap =
        collector.fleetRegistry().snapshot();
    auto analysis = obs::health::analyzeHealth(
        snap, devices, SimTime(months) * workload::kMonth);
    obs::FlightRecorder breaches(u64(devices) + 1);
    analysis.slos = obs::health::evaluateSlos(
        obs::health::defaultFleetSlos(), collector.fleetSeries(), snap,
        &breaches);

    AsciiTable sb("SLO scoreboard");
    sb.header({"slo", "objective", "attainment", "budget left",
               "short burn", "long burn", "state"});
    for (const auto &st : analysis.slos) {
        const bool lat =
            st.spec.kind == obs::health::SloKind::LatencyQuantile;
        sb.row({st.spec.name,
                lat ? strformat("p%.0f<=%.0fms",
                                100.0 * st.spec.quantile,
                                st.spec.targetMs)
                    : strformat("%.1f%%", 100.0 * st.spec.objective),
                lat ? strformat("%.0fms", st.attainment)
                    : strformat("%.1f%%", 100.0 * st.attainment),
                strformat("%.1f/%.1f", st.budgetRemaining,
                          st.budgetAllowed),
                strformat("%.2f", st.shortBurn),
                strformat("%.2f", st.longBurn),
                st.burning  ? "BURNING"
                : st.met    ? "met"
                            : "missed"});
    }
    sb.print();

    AsciiTable rk("bottleneck ranking (busy time vs capacity)");
    rk.header({"rank", "component", "busy", "ops", "util ppm",
               "per-op"});
    for (std::size_t i = 0; i < analysis.ranked.size(); ++i) {
        const auto &c = analysis.ranked[i];
        rk.row({strformat("%zu", i + 1), c.name,
                humanTime(SimTime(c.busyNs)),
                strformat("%llu", (unsigned long long)c.ops),
                strformat("%.2f", 1e6 * c.utilization),
                humanTime(SimTime(c.serviceNs))});
    }
    rk.print();
    if (!analysis.bottleneck.empty())
        std::printf("bottleneck: %s — saturates at ~%.0fx current "
                    "load\n",
                    analysis.bottleneck.c_str(), analysis.headroom);
    if (breaches.recorded() > 0)
        std::printf("%llu SLO breach window(s) recorded to the flight "
                    "recorder\n",
                    (unsigned long long)breaches.recorded());
}

/**
 * The `server` command: stand up a cloud update service over the
 * workbench world, mine two model versions (the build month, then a
 * fresh month) with the requested pipeline shape, and print what the
 * fleet would sync.
 */
void
runServerCommand(harness::Workbench &wb, u32 shards, u32 threads)
{
    server::ServiceConfig scfg;
    scfg.build.shards = shards;
    scfg.build.threads = threads;
    server::CloudUpdateService svc(wb.universe(), scfg);

    std::printf("mining 2 community months (%u shards x %u threads)"
                "...\n",
                shards, threads);
    svc.ingest(wb.buildLog());
    const auto fresh = wb.nextCommunityMonth();
    const auto &m = svc.ingest(fresh);
    std::printf("model v%llu: %zu distinct pairs mined, %zu selected "
                "for the cache\n",
                (unsigned long long)m.version, m.table.rows().size(),
                m.contents.pairs.size());

    AsciiTable st(strformat("shard stats (v%llu build)",
                            (unsigned long long)m.version));
    st.header({"shard", "records", "rows"});
    for (std::size_t s = 0; s < m.stats.shardStats.size(); ++s)
        st.row({strformat("%zu", s),
                strformat("%llu",
                          (unsigned long long)m.stats.shardStats[s]
                              .records),
                strformat("%llu",
                          (unsigned long long)m.stats.shardStats[s]
                              .rows)});
    st.print();

    const auto fullInstall = svc.makeDelta(0);
    const auto monthly = svc.makeDelta(1);
    AsciiTable dt("delta sync (what a device downloads)");
    dt.header({"update", "adds", "evicts", "reranks", "wire"});
    dt.row({"full install (v0->v2)",
            strformat("%zu", fullInstall.adds.size()), "0", "0",
            humanBytes(core::deltaWireBytes(fullInstall, wb.universe()))
                .c_str()});
    dt.row({"monthly (v1->v2)", strformat("%zu", monthly.adds.size()),
            strformat("%zu", monthly.evicts.size()),
            strformat("%zu", monthly.reranks.size()),
            humanBytes(core::deltaWireBytes(monthly, wb.universe()))
                .c_str()});
    dt.print();
}

/**
 * Print one causal sync chain: stage rows from both tiers, then the
 * critical-path breakdown explainSync computes for its last trace.
 */
void
printSyncChain(const std::vector<obs::SyncEvent> &events)
{
    AsciiTable ct("causal event chain (flight recorder)");
    ct.header({"tier", "stage", "ok", "from", "to", "dur", "detail"});
    for (const auto &ev : events)
        ct.row({obs::syncTierName(ev.tier), obs::syncStageName(ev.stage),
                ev.ok ? "yes" : "NO",
                strformat("v%llu", (unsigned long long)ev.fromVersion),
                strformat("v%llu", (unsigned long long)ev.toVersion),
                humanTime(ev.duration).c_str(),
                strformat("%llu", (unsigned long long)ev.detail)});
    ct.print();

    const auto ex = obs::explainSync(events);
    if (ex.criticalPath <= 0)
        return;
    AsciiTable et(strformat("critical path of trace 0x%016llx (%s)",
                            (unsigned long long)ex.traceId,
                            humanTime(ex.criticalPath).c_str()));
    et.header({"stage", "duration", "share"});
    for (const auto &row : ex.rows) {
        if (row.event.traceId != ex.traceId ||
            row.event.tier != obs::SyncTier::Device ||
            row.event.duration == 0)
            continue;
        et.row({strformat("%s #%u", obs::syncStageName(row.event.stage),
                          row.event.attempt),
                humanTime(row.event.duration).c_str(),
                strformat("%.1f%%", 100.0 * row.share)});
    }
    et.print();
}

/**
 * The `store` command: spin up the pc::store slab engine on a scratch
 * flash device, run a zipf-skewed update/lookup churn, and print
 * lookup latency, cache hit rate and GC stats.
 */
void
runStoreCommand(u64 records, u64 ops)
{
    nvm::FlashConfig fc;
    fc.capacity = 256 * kMiB;
    nvm::FlashDevice device(fc);
    simfs::FlashStore fs(device);
    store::StoreEngineConfig cfg;
    cfg.slotsPerSlab = 64;
    store::StoreEngine eng(fs, cfg);

    SimTime t0 = 0;
    for (u64 k = 0; k < records; ++k)
        eng.put(k, strformat("record %llu payload",
                             (unsigned long long)k) +
                       std::string(400, 'r'),
                t0);
    const ZipfSampler zipf(records, 0.99);
    Rng rng(7);
    std::vector<SimTime> lat;
    lat.reserve(ops);
    u64 version = 0;
    for (u64 i = 0; i < ops; ++i) {
        const u64 k = zipf.sample(rng);
        if (rng.chance(0.5)) {
            eng.put(k, strformat("record %llu v%llu",
                                 (unsigned long long)k,
                                 (unsigned long long)++version) +
                           std::string(400, 'u'),
                    t0);
        } else {
            std::string out;
            SimTime one = 0;
            eng.get(k, out, one);
            lat.push_back(one);
        }
    }
    std::sort(lat.begin(), lat.end());
    // Every op may have been an update: then there is no get to rank.
    const auto q = [&](double f) {
        return lat.empty() ? std::string("-")
                           : humanTime(lat[std::size_t(
                                 f * double(lat.size() - 1) + 0.5)]);
    };
    AsciiTable t(strformat("pc::store engine, %llu records, %llu "
                           "zipf ops (50/50 get/update)",
                           (unsigned long long)records,
                           (unsigned long long)ops));
    t.header({"p50 get", "p99 get", "cache hit", "gc runs", "relocated",
              "slabs freed", "coalescing"});
    t.row({q(0.50), q(0.99),
           strformat("%.1f%%", 100.0 * eng.cacheStats().hitRate()),
           strformat("%llu", (unsigned long long)eng.gcStats().collections),
           strformat("%llu", (unsigned long long)eng.gcStats().relocated),
           strformat("%llu",
                     (unsigned long long)eng.gcStats().slabsReclaimed),
           strformat("%.1fx", eng.batchStats().coalescing())});
    t.print();
    std::printf("(see bench_micro_store for the full sweep)\n");
}

/**
 * The `explain` command: one community sync on a scratch device with
 * the flight recorder attached — the causal chain spans the server
 * (lookup, build) and the device (delivery, CRC, validate, commit).
 */
void
runExplainCommand(harness::Workbench &wb)
{
    server::ServiceConfig scfg;
    scfg.build.shards = 4;
    scfg.build.threads = 2;
    server::CloudUpdateService svc(wb.universe(), scfg);
    std::printf("mining one community month...\n");
    svc.ingest(wb.buildLog());

    device::MobileDevice dev(wb.universe());
    obs::FlightRecorder rec(/*device_id=*/0);
    dev.attachFlightRecorder(&rec);
    const auto res = svc.syncDevice(dev);
    dev.attachFlightRecorder(nullptr);

    std::printf("sync v%llu -> v%llu: %s, %u attempt%s, %s wire, %s\n",
                (unsigned long long)res.fromVersion,
                (unsigned long long)res.toVersion,
                res.ok ? "ok" : "FAILED", res.attempts,
                res.attempts == 1 ? "" : "s",
                humanBytes(res.deltaBytes).c_str(),
                humanTime(res.time).c_str());
    printSyncChain(rec.events());
}

/**
 * The `chaos` command: a small chaos-engineering run against the sync
 * path — outage storm, bit flips, a version-skew cohort, optional
 * admission control, optional sabotage — ending with the invariant
 * verdict and the causal postmortem of any violation.
 */
void
runChaosCommand(harness::Workbench &wb, std::size_t devices, u32 months,
                double flipRate, u64 budget, u32 sabotage)
{
    server::ServiceConfig scfg;
    scfg.build.shards = 4;
    scfg.build.threads = 2;
    scfg.maxVersions = 2; // slide the window: skew claims fall off it
    server::CloudUpdateService svc(wb.universe(), scfg);
    std::printf("mining 3 community months (window keeps 2)...\n");
    svc.ingest(wb.buildLog());
    svc.ingest(wb.nextCommunityMonth());
    svc.ingest(wb.nextCommunityMonth());

    harness::FleetRunConfig cfg;
    cfg.devices = devices;
    cfg.months = months;
    cfg.cloud = &svc;
    cfg.chaos.enabled = true;
    cfg.chaos.stormStartMonth = 1;
    cfg.chaos.stormMonths = 1;
    cfg.chaos.payloadCorruptRate = flipRate;
    cfg.chaos.skewEvery = 5;
    cfg.chaos.herdBudgetPerMonth = budget;
    cfg.chaos.sabotageEvery = sabotage;

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);
    std::printf("%zu devices x %u months: month-1 storm, %.0f%% bit "
                "flips, shed budget %s, sabotage %s...\n",
                devices, months, 100.0 * flipRate,
                budget ? strformat("%llu/month",
                                   (unsigned long long)budget)
                             .c_str()
                       : "off",
                sabotage ? strformat("every %u", sabotage).c_str()
                         : "off");
    const auto run = harness::runFleet(wb, cfg, collector);

    AsciiTable t("what the resilience machinery did");
    t.header({"event", "count"});
    t.row({"syncs applied",
           strformat("%llu", (unsigned long long)run.cloudSyncs)});
    t.row({"syncs failed (radio/corrupt)",
           strformat("%llu",
                     (unsigned long long)run.cloudSyncFailures)});
    t.row({"syncs shed (admission)",
           strformat("%llu", (unsigned long long)run.cloudSyncsShed)});
    t.row({"corrupt frames caught (CRC)",
           strformat("%llu", (unsigned long long)run.corruptRejected)});
    t.row({"deltas rejected (validation)",
           strformat("%llu", (unsigned long long)run.rejectedDeltas)});
    t.row({"escalated full installs",
           strformat("%llu",
                     (unsigned long long)run.escalatedFullInstalls)});
    t.row({"devices verified vs server",
           strformat("%llu/%zu", (unsigned long long)run.devicesVerified,
                     run.devices)});
    t.print();
    std::printf("sync invariants: %s\n",
                run.invariantViolations
                    ? strformat("** %llu VIOLATIONS **",
                                (unsigned long long)
                                    run.invariantViolations)
                          .c_str()
                    : "held (every synced device byte-identical to "
                      "the server model)");
    std::size_t chainsShown = 0;
    for (const auto &r : run.invariantReports) {
        std::printf("postmortem: device %zu — %s%s (device v%llu "
                    "digest %u, server v%llu digest %u)\n",
                    r.device, harness::invariantKindName(r.kind),
                    r.sabotaged ? " [sabotaged]" : "",
                    (unsigned long long)r.deviceVersion, r.deviceDigest,
                    (unsigned long long)r.serverVersion,
                    r.serverDigest);
        if (++chainsShown <= 2)
            printSyncChain(r.chain);
        else
            std::printf("  (chain: %zu events — kept brief)\n",
                        r.chain.size());
    }
}

} // namespace

int
main()
{
    std::printf("building the world (a few seconds)...\n");
    harness::Workbench wb(harness::smallWorkbenchConfig());
    device::MobileDevice dev(wb.universe());
    obs::MetricRegistry registry;
    obs::Tracer tracer;
    dev.attachMetrics(&registry);
    dev.attachTracer(&tracer, "shell");
    dev.installCommunityCache(wb.communityCache());
    core::CacheManager manager(wb.universe());
    auto &ps = dev.pocketSearch();

    std::printf("ready: %zu cached pairs, %s DRAM, %s flash. Type "
                "'help'.\n",
                ps.pairs(), humanBytes(ps.dramBytes()).c_str(),
                humanBytes(ps.flashLogicalBytes()).c_str());

    core::LookupOutcome last;
    std::string last_query;
    std::string line;
    while (std::printf("pocket> "), std::fflush(stdout),
           std::getline(std::cin, line)) {
        std::istringstream iss(line);
        std::string cmd;
        iss >> cmd;
        if (cmd.empty())
            continue;

        if (cmd == "quit" || cmd == "exit")
            break;
        if (cmd == "help") {
            help();
        } else if (cmd == "seed") {
            std::size_t n = 0;
            iss >> n;
            const auto &pairs = wb.communityCache().pairs;
            if (n >= pairs.size()) {
                std::printf("only %zu cached pairs\n", pairs.size());
                continue;
            }
            std::printf("#%zu: \"%s\" -> %s\n", n,
                        wb.universe().query(pairs[n].pair.query)
                            .text.c_str(),
                        wb.universe().result(pairs[n].pair.result)
                            .url.c_str());
        } else if (cmd == "type") {
            std::string prefix;
            std::getline(iss, prefix);
            while (!prefix.empty() && prefix.front() == ' ')
                prefix.erase(prefix.begin());
            auto out = ps.suggestWithResults(prefix, 3, 1);
            std::printf("[%s_] (%s)\n", prefix.c_str(),
                        humanTime(out.latency).c_str());
            for (const auto &row : out.rows) {
                std::printf("  %-24s", row.suggestion.query.c_str());
                if (!row.results.empty())
                    std::printf(" -> %s", row.results[0].url.c_str());
                std::printf("\n");
            }
            if (out.rows.empty())
                std::printf("  (no cached completions)\n");
        } else if (cmd == "search") {
            std::string q;
            std::getline(iss, q);
            while (!q.empty() && q.front() == ' ')
                q.erase(q.begin());
            last = ps.lookup(q, 2);
            last_query = q;
            if (last.hit) {
                std::printf("HIT in %s:\n",
                            humanTime(last.hashLookupTime +
                                      last.fetchTime).c_str());
                for (std::size_t i = 0; i < last.results.size(); ++i) {
                    std::printf("  [%zu] %s — %s\n", i,
                                last.results[i].title.c_str(),
                                last.results[i].url.c_str());
                }
                std::printf("(+361 ms render)\n");
            } else {
                std::printf("MISS -> would go over 3G (~6 s, ~7.5 J)\n");
            }
        } else if (cmd == "click") {
            std::size_t n = 0;
            iss >> n;
            if (last_query.empty() || n >= last.urlHashes.size()) {
                std::printf("no such result from the last search\n");
                continue;
            }
            ps.table().applyClick(last_query, last.urlHashes[n], 0.1);
            std::printf("clicked; '%s' re-ranked for next time\n",
                        last_query.c_str());
        } else if (cmd == "stats") {
            const auto &s = ps.stats();
            std::printf("pairs=%zu dram=%s flash=%s | lookups=%llu "
                        "query-hits=%llu learned=%llu | suggest "
                        "entries=%zu\n",
                        ps.pairs(), humanBytes(ps.dramBytes()).c_str(),
                        humanBytes(ps.flashLogicalBytes()).c_str(),
                        (unsigned long long)s.lookups,
                        (unsigned long long)s.queryHits,
                        (unsigned long long)s.pairsLearned,
                        ps.suggestIndex().size());
            harness::printMetricsReport("metrics registry",
                                        registry.snapshot());
        } else if (cmd == "trace") {
            std::size_t n = 0;
            std::string out_file;
            iss >> n >> out_file;
            const auto &pairs = wb.communityCache().pairs;
            if (n >= pairs.size()) {
                std::printf("only %zu cached pairs\n", pairs.size());
                continue;
            }
            const std::size_t before = tracer.spans().size();
            const auto out = dev.serveQuery(
                pairs[n].pair, device::ServePath::PocketSearch, false);
            std::printf("\"%s\": %s, %s (%.1f mJ)\n",
                        wb.universe().query(pairs[n].pair.query)
                            .text.c_str(),
                        out.cacheHit ? "HIT" : "MISS",
                        humanTime(out.latency).c_str(),
                        out.energy / 1000.0);
            std::vector<std::pair<std::string, SimTime>> rollup;
            for (std::size_t i = before; i < tracer.spans().size();
                 ++i) {
                const auto &sp = tracer.spans()[i];
                std::printf("  %-10s %-18s @%-12s %s\n",
                            sp.category.c_str(), sp.name.c_str(),
                            humanTime(sp.start).c_str(),
                            humanTime(sp.duration).c_str());
                for (const auto &[k, v] : sp.args)
                    std::printf("    %s=%s\n", k.c_str(), v.c_str());
                auto it = std::find_if(
                    rollup.begin(), rollup.end(),
                    [&](const auto &r) { return r.first == sp.category; });
                if (it == rollup.end())
                    rollup.emplace_back(sp.category, sp.duration);
                else
                    it->second += sp.duration;
            }
            for (const auto &[cat, dur] : rollup)
                std::printf("  rollup: %-10s %s\n", cat.c_str(),
                            humanTime(dur).c_str());
            if (!out_file.empty()) {
                if (tracer.writeChromeTraceFile(out_file))
                    std::printf("wrote %s\n", out_file.c_str());
            }
        } else if (cmd == "fleet") {
            std::size_t n = 24;
            u32 months = 4;
            unsigned threads = 1; // t=0 means one per hardware thread
            // Failed extraction zeroes the target; restore defaults so
            // trailing args stay optional.
            if (!(iss >> n))
                n = 24;
            if (!(iss >> months))
                months = 4;
            if (!(iss >> threads))
                threads = 1;
            if (n == 0 || months == 0) {
                std::printf("need at least 1 device and 1 month\n");
                continue;
            }
            if (n > 5000 || months > 24 || threads > 64) {
                std::printf("keeping it interactive: max 5000 devices,"
                            " 24 months, 64 threads\n");
                continue;
            }
            runFleetCommand(wb, n, months, threads);
        } else if (cmd == "health") {
            std::size_t n = 24;
            u32 months = 6;
            unsigned threads = 1;
            u32 storm = 0;
            if (!(iss >> n))
                n = 24;
            if (!(iss >> months))
                months = 6;
            if (!(iss >> threads))
                threads = 1;
            if (!(iss >> storm))
                storm = 0;
            if (n == 0 || months == 0) {
                std::printf("need at least 1 device and 1 month\n");
                continue;
            }
            if (n > 5000 || months > 24 || threads > 64) {
                std::printf("keeping it interactive: max 5000 devices,"
                            " 24 months, 64 threads\n");
                continue;
            }
            runHealthCommand(wb, n, months, threads, storm != 0);
        } else if (cmd == "server") {
            u32 shards = 8;
            u32 threads = 4;
            iss >> shards >> threads;
            if (shards == 0 || threads == 0) {
                std::printf("need at least 1 shard and 1 thread\n");
                continue;
            }
            if (shards > 256 || threads > 64) {
                std::printf("keeping it interactive: max 256 shards, "
                            "64 threads\n");
                continue;
            }
            runServerCommand(wb, shards, threads);
        } else if (cmd == "chaos") {
            std::size_t n = 0;
            u32 months = 0;
            double flip = 0.0;
            u64 budget = 0;
            u32 sabotage = 0;
            if (!(iss >> n))
                n = 20;
            if (!(iss >> months))
                months = 6;
            if (!(iss >> flip))
                flip = 0.3;
            if (!(iss >> budget))
                budget = 0;
            if (!(iss >> sabotage))
                sabotage = 0;
            if (n == 0 || months == 0 || flip < 0.0 || flip > 1.0) {
                std::printf("need >=1 device, >=1 month and a flip "
                            "rate in [0,1]\n");
                continue;
            }
            if (n > 5000 || months > 24) {
                std::printf("keeping it interactive: max 5000 devices,"
                            " 24 months\n");
                continue;
            }
            runChaosCommand(wb, n, months, flip, budget, sabotage);
        } else if (cmd == "store") {
            u64 records = 0;
            u64 ops = 0;
            if (!(iss >> records))
                records = 2000;
            if (!(iss >> ops))
                ops = 6000;
            if (records == 0 || ops == 0) {
                std::printf("need >=1 record and >=1 op\n");
                continue;
            }
            if (records > 200000 || ops > 1000000) {
                std::printf("keeping it interactive: max 200000 "
                            "records, 1000000 ops\n");
                continue;
            }
            runStoreCommand(records, ops);
        } else if (cmd == "explain") {
            runExplainCommand(wb);
        } else if (cmd == "update") {
            const auto fresh_log = wb.nextCommunityMonth();
            const auto fresh =
                logs::TripletTable::fromLog(fresh_log);
            core::UpdatePolicy policy;
            policy.content.kind = core::ThresholdKind::VolumeShare;
            policy.content.volumeShare = 0.55;
            SimTime t = 0;
            const auto st = manager.update(ps, fresh, policy, t);
            st.publishMetrics(registry);
            std::printf("synced: -%zu pruned, +%zu fresh, %zu kept; "
                        "exchange %s\n",
                        st.pairsPruned, st.pairsAdded, st.pairsKept,
                        humanBytes(st.bytesToServer +
                                   st.bytesToPhone).c_str());
        } else {
            std::printf("unknown command '%s' (try 'help')\n",
                        cmd.c_str());
        }
    }
    std::printf("bye\n");
    return 0;
}
