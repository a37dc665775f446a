/**
 * @file
 * Ablation — radio fault injection and graceful degradation.
 *
 * The paper's headline numbers assume a perfect radio. This bench
 * replays the same personal workload through the MobileDevice while a
 * seeded FaultPlan injects coverage outages and mid-exchange failures,
 * sweeping outage share x exchange-failure rate. The things to watch:
 *
 *  - cache hits are untouched: local serving does not care about the
 *    radio, so the hit rows stay flat across the whole sweep;
 *  - no query ever errors: unreachable misses degrade to stale cached
 *    results or the offline page and queue for later sync;
 *  - the retry/backoff machinery trades latency for reachability: miss
 *    p99 grows with the failure rate, and only the residual share of
 *    queries (all retries exhausted) degrades;
 *  - the counter ledger balances: every injected fault is accounted
 *    for by a device resilience counter.
 *
 * Everything is seeded; two runs of this binary print identical bytes.
 */

#include "bench_common.h"
#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/workbench.h"
#include "workload/stream.h"

using namespace pc;
using namespace pc::device;

namespace {

struct SweepPoint
{
    double outageShare;
    double failureRate;
};

struct SweepResult
{
    u64 queries = 0;
    u64 hits = 0;
    u64 degraded = 0;
    u64 stale = 0;
    u64 synced = 0;
    double missP99Ms = 0.0;
    double meanEnergyMj = 0.0;
    ResilienceStats resilience;
    /** Injected-fault and device counters ("fault.*", "device.*"...). */
    obs::MetricsSnapshot ledger;
};

SweepResult
runPoint(harness::Workbench &wb,
         const std::vector<workload::StreamEvent> &events, SweepPoint pt)
{
    MobileDevice device(wb.universe());
    device.installCommunityCache(wb.communityCache());

    fault::FaultConfig fc;
    fc.seed = 42; // one fixed seed per point: byte-identical reruns
    fc.radio.outageShare = pt.outageShare;
    fc.radio.meanOutageDuration = 60 * kSecond;
    fc.radio.exchangeFailureRate = pt.failureRate;
    fault::FaultPlan plan(fc);
    device.attachFaults(&plan);
    obs::MetricRegistry reg;
    device.attachMetrics(&reg);

    SweepResult res;
    EmpiricalCdf miss_ms;
    MicroJoules energy = 0;
    for (const auto &ev : events) {
        const auto out =
            device.serveQuery(ev.pair, ServePath::PocketSearch, true);
        ++res.queries;
        energy += out.energy;
        if (out.cacheHit) {
            ++res.hits;
        } else {
            miss_ms.add(toMillis(out.latency));
        }
        if (out.degraded)
            ++res.degraded;
        if (out.staleServe)
            ++res.stale;
        // Think time between queries; long enough that the outage
        // schedule actually moves while the user is idle.
        device.advanceTime(30 * kSecond);
    }
    // Coverage is restored at the end of the day: drain the queue.
    device.attachFaults(nullptr);
    res.synced = device.syncMissQueue().synced;

    res.missP99Ms = miss_ms.size() ? miss_ms.quantile(0.99) : 0.0;
    res.meanEnergyMj = energy / double(res.queries) / 1000.0;
    res.resilience = device.resilience();
    plan.publishMetrics(reg);
    res.ledger = reg.snapshot();
    res.ledger.histograms.clear();
    return res;
}

} // namespace

int
main()
{
    bench::banner("Ablation", "radio faults, retries, degradation");
    harness::Workbench wb(harness::smallWorkbenchConfig());

    // One deterministic query workload, shared by every sweep point so
    // rows differ only by the injected faults. Concatenating many
    // users' months keeps a healthy miss share (fresh users bring
    // queries the community cache has never seen), which is where the
    // radio — and therefore the fault machinery — gets exercised.
    workload::PopulationSampler sampler(wb.population());
    Rng seeder(1213);
    std::vector<workload::StreamEvent> events;
    for (int u = 0; u < 24 && events.size() < 600; ++u) {
        Rng ur = seeder.fork();
        const auto profile = sampler.sampleUser(ur);
        workload::UserStream stream(wb.universe(), profile,
                                    seeder.next(), 0);
        stream.setEpoch(1);
        const auto month = stream.month(0);
        events.insert(events.end(), month.begin(), month.end());
    }
    if (events.size() > 600)
        events.resize(600); // keep the sweep quick and bounded

    const SweepPoint points[] = {
        {0.0, 0.0},  {0.0, 0.1},  {0.0, 0.2},
        {0.1, 0.0},  {0.1, 0.2},
        {0.3, 0.0},  {0.3, 0.2},  {0.3, 0.4},
    };

    AsciiTable t(strformat("Outage share x exchange-failure sweep "
                           "(%zu queries/point)",
                           events.size()));
    t.header({"outage", "fail rate", "hit rate", "degraded", "stale",
              "synced", "miss p99", "energy/query", "retries"});
    SweepResult worst;
    double worst_badness = -1.0;
    for (const auto &pt : points) {
        const auto r = runPoint(wb, events, pt);
        t.row({bench::pct(pt.outageShare), bench::pct(pt.failureRate),
               bench::pct(double(r.hits) / double(r.queries)),
               bench::pct(double(r.degraded) / double(r.queries)),
               strformat("%llu", (unsigned long long)r.stale),
               strformat("%llu", (unsigned long long)r.synced),
               strformat("%.1f s", r.missP99Ms / 1000.0),
               strformat("%.1f mJ", r.meanEnergyMj),
               strformat("%llu",
                         (unsigned long long)r.resilience.retries)});
        const double badness = pt.outageShare + pt.failureRate;
        if (badness > worst_badness) {
            worst_badness = badness;
            worst = r;
        }
    }
    t.print();

    // Full ledger for the harshest point: injected faults on one side,
    // what the device did about them on the other. The invariants the
    // tests enforce (failed == injected failures, degraded == stale +
    // offline, queued == synced + still-queued) are visible here.
    harness::printMetricsReport("Fault ledger at the harshest sweep point",
                                worst.ledger);

    std::printf("\nCache hits never touch the radio, so the pocket "
                "cloudlet's local serves are immune to every\nrow of "
                "this sweep; misses retry with backoff and, when the "
                "cloud stays unreachable, degrade to\nstale results or "
                "the offline page — never an error — and sync once "
                "coverage returns.\n");
    return 0;
}
