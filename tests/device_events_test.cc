/**
 * @file
 * The device's three event views — the Chrome span export, the flight
 * recorder's sync chains and the health ledgers — pinned on one seeded
 * faulty device, and tied to each other.
 *
 * The golden case drives hits, retried misses, a stale serve, an
 * offline page, service-driven syncs (corrupt-then-ok, three skew
 * rejects, an escalated full install, an unknown target version) and a
 * miss-queue drain with a tracer, a flight recorder and a health
 * accountant all attached, then pins the Chrome-export bytes, the
 * writeSyncEvents bytes and every health.* counter. The cross-view
 * case replays the same scenario and checks, operation by operation,
 * that each ledger moved by exactly what the other two views recorded.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/workbench.h"
#include "obs/causal.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/service.h"
#include "util/hash.h"

namespace pc {
namespace {

using device::MobileDevice;
using device::ServePath;
using server::CloudUpdateService;

/** Non-const: the service below ingests one extra community month. */
harness::Workbench &
sharedWorkbench()
{
    static harness::Workbench wb(harness::smallWorkbenchConfig());
    return wb;
}

/**
 * Versions {2, 3} in the window (maxVersions 2, three ingests): a
 * device claiming version 2 over a version-3 table is rejected, and
 * version 99 is unknown.
 */
CloudUpdateService &
windowedService()
{
    static CloudUpdateService *svc = [] {
        harness::Workbench &wb = sharedWorkbench();
        server::ServiceConfig cfg;
        cfg.build.shards = 2;
        cfg.build.threads = 1;
        cfg.maxVersions = 2;
        auto *s = new CloudUpdateService(wb.universe(), cfg);
        workload::SearchLog half(wb.universe());
        const auto &records = wb.buildLog().records();
        for (std::size_t i = 0; i < records.size() / 2; ++i)
            half.add(records[i]);
        s->ingest(half);
        s->ingest(wb.buildLog());
        s->ingest(wb.nextCommunityMonth());
        return s;
    }();
    return *svc;
}

fault::FaultPlan
makePlan(u64 seed, double fail, double corrupt)
{
    fault::FaultConfig fc;
    fc.seed = seed;
    fc.radio.exchangeFailureRate = fail;
    fc.radio.latencySpikeRate = fail > 0.0 && fail < 1.0 ? 0.2 : 0.0;
    fc.radio.payloadCorruptRate = corrupt;
    return fault::FaultPlan(fc);
}

/** One device with every event view attached. */
struct Rig
{
    obs::MetricRegistry reg;
    obs::Tracer tracer;
    obs::FlightRecorder rec{7, 4096};
    obs::health::HealthAccountant acct{reg};
    MobileDevice dev;

    explicit Rig(const workload::QueryUniverse &uni) : dev(uni)
    {
        dev.attachMetrics(&reg);
        dev.attachTracer(&tracer, "golden");
        dev.attachFlightRecorder(&rec);
        dev.attachHealth(&acct);
    }

    ~Rig()
    {
        dev.attachFaults(nullptr);
        dev.attachHealth(nullptr);
        dev.attachFlightRecorder(nullptr);
        dev.attachTracer(nullptr);
        dev.attachMetrics(nullptr);
    }

    u64 counter(const std::string &name) const
    {
        return reg.snapshot().counterValue(name);
    }
};

/** Which operation the scenario just ran. */
enum class Op
{
    Query,
    Sync,
    Drain,
};

/** What the scenario covered (asserted, so the pin stays meaningful). */
struct Coverage
{
    u64 hits = 0;
    u64 retriedMisses = 0;
    u64 stale = 0;
    u64 offline = 0;
    u32 corruptThenOk = 0;
    u32 rejects = 0;
    u32 escalatedOk = 0;
    u32 noVersion = 0;
    u64 drained = 0;
};

/**
 * Drive the scenario on `rig`, calling `after(op, drain)` once each
 * operation returns (`drain` is the miss drain's result, else empty).
 */
Coverage
runScenario(Rig &rig,
            const std::function<void(Op, const MobileDevice::SyncResult &)>
                &after)
{
    CloudUpdateService &svc = windowedService();
    const workload::QueryUniverse &uni = sharedWorkbench().universe();
    MobileDevice &dev = rig.dev;
    Coverage cov;

    // A first-contact full install through a link that flips frame
    // bits: corrupt deliveries are re-requested until one verifies.
    fault::FaultPlan corrupt = makePlan(21, 0.2, 0.5);
    dev.attachFaults(&corrupt);
    const auto install = svc.syncDevice(dev);
    after(Op::Sync, {});
    if (install.ok && install.corruptRejected > 0)
        ++cov.corruptThenOk;

    // Hits and misses over a flaky radio.
    fault::FaultPlan flaky = makePlan(5, 0.5, 0.0);
    dev.attachFaults(&flaky);
    const auto &cached = svc.latest().contents.pairs;
    for (u32 i = 0; i < 24; ++i) {
        const workload::PairRef pair =
            i % 2 == 0 ? cached[std::size_t(i) * 3 % cached.size()].pair
                       : workload::PairRef{
                             uni.result(700 + i).queries.front().first,
                             700 + i};
        dev.advanceTime(3 * kSecond);
        const auto q = dev.serveQuery(pair, ServePath::PocketSearch);
        after(Op::Query, {});
        cov.hits += q.cacheHit;
        cov.retriedMisses += !q.cacheHit && q.attempts > 1 &&
                             q.backoffTime > 0;
    }

    // The radio dies: a cached query string with an uncached result
    // serves stale results, an uncached query renders the offline
    // page, and both misses queue.
    fault::FaultPlan dead = makePlan(9, 1.0, 0.0);
    dev.attachFaults(&dead);
    const core::PocketSearch &ps = dev.pocketSearch();
    const u32 staleQuery = cached.front().pair.query;
    u32 staleResult = 0;
    while (ps.containsPair({staleQuery, staleResult}))
        ++staleResult;
    u32 offlineQuery = 0;
    while (!ps.table().lookup(uni.query(offlineQuery).text).empty())
        ++offlineQuery;
    for (const workload::PairRef pair :
         {workload::PairRef{staleQuery, staleResult},
          workload::PairRef{offlineQuery,
                            uni.query(offlineQuery).results.front().first}}) {
        const auto q = dev.serveQuery(pair, ServePath::PocketSearch);
        after(Op::Query, {});
        cov.stale += q.staleServe;
        cov.offline += q.degraded && !q.staleServe;
    }

    // Coverage returns: drain the queued misses.
    dev.attachFaults(nullptr);
    dev.advanceTime(60 * kSecond);
    const auto drain = dev.syncMissQueue();
    after(Op::Drain, drain);
    cov.drained = drain.synced;

    // Version skew: the device claims version 2 over its version-3
    // table. Three verified-but-invalid deltas are rejected; the
    // fourth sync escalates to a full install.
    dev.setCommunityVersion(svc.oldestVersion());
    for (u32 i = 0; i <= MobileDevice::kBadDeltaEscalation; ++i) {
        const bool escalating = dev.needsFullInstall();
        const auto res = svc.syncDevice(dev);
        after(Op::Sync, {});
        cov.rejects += res.rejected;
        cov.escalatedOk += escalating && res.ok;
    }

    // A target version the service never published.
    const auto none = svc.syncDevice(dev, 99);
    after(Op::Sync, {});
    cov.noVersion += !none.ok && none.attempts == 0;
    return cov;
}

void
expectFullCoverage(const Coverage &cov)
{
    EXPECT_GT(cov.hits, 0u);
    EXPECT_GT(cov.retriedMisses, 0u);
    EXPECT_EQ(cov.stale, 1u);
    EXPECT_EQ(cov.offline, 1u);
    EXPECT_EQ(cov.corruptThenOk, 1u);
    EXPECT_EQ(cov.rejects, MobileDevice::kBadDeltaEscalation);
    EXPECT_EQ(cov.escalatedOk, 1u);
    EXPECT_EQ(cov.noVersion, 1u);
    EXPECT_GE(cov.drained, 2u);
}

/** "size:fnv1a" — a compact, diffable fingerprint of an artifact. */
std::string
fingerprint(const std::string &bytes)
{
    return std::to_string(bytes.size()) + ":" +
           std::to_string(fnv1a(bytes));
}

TEST(DeviceEventsGolden, SeededFaultyDevicePinsEveryView)
{
    Rig rig(sharedWorkbench().universe());
    expectFullCoverage(
        runScenario(rig, [](Op, const MobileDevice::SyncResult &) {}));

    std::ostringstream chrome;
    rig.tracer.writeChromeTrace(chrome);
    std::ostringstream chains;
    {
        obs::JsonWriter w(chains, /*pretty=*/true);
        obs::writeSyncEvents(w, rig.rec.events());
    }
    std::string health;
    for (const auto &[name, value] : rig.reg.snapshot().counters)
        if (name.rfind("health.", 0) == 0)
            health += name + "=" + std::to_string(value) + "\n";

    EXPECT_EQ(fingerprint(chrome.str()), "34715:6153796248394987");
    EXPECT_EQ(fingerprint(chains.str()), "11910:15812394683482441434");
    EXPECT_EQ(health, "health.device.cpu.busy_ns=10263007360\n"
                      "health.device.cpu.ops=27\n"
                      "health.device.flash.busy_ns=111308620\n"
                      "health.device.flash.ops=13\n"
                      "health.device.query.busy_ns=199886667357\n"
                      "health.device.query.ops=26\n"
                      "health.device.radio.3g.busy_ns=219995891228\n"
                      "health.device.radio.3g.ops=52\n"
                      "health.device.radio.backoff_ns=25995326473\n"
                      "health.device.radio.edge.busy_ns=0\n"
                      "health.device.radio.edge.ops=0\n"
                      "health.device.radio.wifi.busy_ns=0\n"
                      "health.device.radio.wifi.ops=0\n"
                      "health.device.sync.busy_ns=55265560697\n"
                      "health.device.sync.bytes=664984\n"
                      "health.device.sync.ops=9\n");
}

/** Sum of `spans[from..]` durations whose name is in `names`. */
u64
spanSum(const std::deque<obs::TraceSpan> &spans, std::size_t from,
        std::initializer_list<const char *> names)
{
    u64 sum = 0;
    for (std::size_t i = from; i < spans.size(); ++i)
        for (const char *n : names)
            if (spans[i].category == "device" && spans[i].name == n)
                sum += u64(spans[i].duration);
    return sum;
}

TEST(DeviceEventsCrossView, LedgersEqualTheSpansAndChainsTheyFold)
{
    Rig rig(sharedWorkbench().universe());
    const char *const kLedgers[] = {
        "health.device.cpu.busy_ns",   "health.device.cpu.ops",
        "health.device.flash.busy_ns", "health.device.flash.ops",
        "health.device.query.busy_ns", "health.device.query.ops",
        "health.device.sync.busy_ns",  "health.device.sync.ops",
        "health.device.sync.bytes",    "health.device.radio.backoff_ns",
    };
    std::vector<u64> prev(std::size(kLedgers), 0);
    std::size_t spansSeen = 0;
    u64 eventsSeen = 0;
    u32 syncsChecked = 0, queriesChecked = 0;

    const auto check = [&](Op op, const MobileDevice::SyncResult &drain) {
        std::vector<u64> now;
        for (const char *name : kLedgers)
            now.push_back(rig.counter(name));
        const auto moved = [&](std::size_t i) { return now[i] - prev[i]; };
        const auto &spans = rig.tracer.spans();
        const std::vector<obs::SyncEvent> all = rig.rec.events();
        ASSERT_EQ(all.size(), rig.rec.recorded()) << "ring overflowed";
        const std::vector<obs::SyncEvent> chain(
            all.begin() + std::ptrdiff_t(eventsSeen), all.end());

        if (op == Op::Query) {
            ++queriesChecked;
            EXPECT_TRUE(chain.empty());
            EXPECT_EQ(moved(0), spanSum(spans, spansSeen,
                                        {"probe", "render", "misc"}));
            EXPECT_EQ(moved(1), 1u);
            const u64 fetch =
                spanSum(spans, spansSeen, {"fetch", "stale-fetch"});
            EXPECT_EQ(moved(2), fetch);
            EXPECT_EQ(moved(3), fetch > 0 ? 1u : 0u);
            ASSERT_EQ(spans.back().category, "query");
            EXPECT_EQ(moved(4), u64(spans.back().duration));
            EXPECT_EQ(moved(5), 1u);
            EXPECT_EQ(moved(9), spanSum(spans, spansSeen, {"backoff"}));
            EXPECT_EQ(moved(6) + moved(7) + moved(8), 0u);
        } else if (op == Op::Sync) {
            ++syncsChecked;
            ASSERT_FALSE(chain.empty());
            EXPECT_EQ(spans.size(), spansSeen) << "syncs record no spans";
            u64 delivery = 0, commit = 0, backoff = 0, bytes = 0;
            bool counted = false;
            for (const obs::SyncEvent &ev : chain) {
                EXPECT_EQ(ev.traceId, chain.front().traceId);
                if (ev.tier != obs::SyncTier::Device)
                    continue;
                switch (ev.stage) {
                  case obs::SyncStage::FrameDelivery:
                    delivery += u64(ev.duration);
                    bytes = ev.bytes;
                    break;
                  case obs::SyncStage::Backoff:
                    backoff += u64(ev.duration);
                    break;
                  case obs::SyncStage::Commit:
                    commit = u64(ev.duration);
                    counted = true;
                    break;
                  case obs::SyncStage::Abort:
                  case obs::SyncStage::Reject:
                    counted = true;
                    break;
                  default:
                    break;
                }
            }
            const bool committed =
                chain.back().stage == obs::SyncStage::Commit;
            EXPECT_EQ(moved(6), delivery + commit);
            EXPECT_EQ(moved(0), commit) << "apply is charged to the cpu";
            EXPECT_EQ(moved(1), commit > 0 ? 1u : 0u);
            EXPECT_EQ(moved(7), counted ? 1u : 0u);
            EXPECT_EQ(moved(8), committed ? bytes : 0u);
            EXPECT_EQ(moved(9), backoff);
            EXPECT_EQ(moved(2) + moved(3) + moved(4) + moved(5), 0u);
        } else {
            EXPECT_TRUE(chain.empty()) << "drains record no sync stages";
            EXPECT_EQ(spans.size(), spansSeen) << "drains record no spans";
            EXPECT_EQ(moved(6), u64(drain.time));
            EXPECT_EQ(moved(7), drain.synced);
            EXPECT_EQ(moved(0) + moved(2) + moved(4) + moved(9), 0u);
        }
        prev = now;
        spansSeen = spans.size();
        eventsSeen = rig.rec.recorded();
    };
    expectFullCoverage(runScenario(rig, check));
    EXPECT_EQ(queriesChecked, 26u);
    EXPECT_EQ(syncsChecked, 6u);
}

} // namespace
} // namespace pc
