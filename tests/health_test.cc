/**
 * @file
 * Fleet health observatory tests: the accountant's ledgers, merge
 * associativity through MetricRegistry::mergeFrom, SLO burn edge
 * cases (empty windows, exact budget exhaustion),
 * deterministic breach events, the bottleneck analyzer's ranking
 * rules, the attach cost contract (behaviour-, RNG- and
 * allocation-neutral, span tiling intact), and the end-to-end
 * saturation flip with a byte-identical artifact at any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/fleet.h"
#include "harness/workbench.h"
#include "logs/triplets.h"
#include "obs/causal.h"
#include "obs/fleet.h"
#include "obs/health.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "server/service.h"

// Global allocation counter for the neutrality suite: attached health
// accounting must not allocate on the hot path, and the only way to
// prove it is to count every operator-new in the process and compare
// windows.
namespace {
std::atomic<unsigned long long> g_allocs{0};
}

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// std::stable_sort's temporary buffer comes from the nothrow form and
// goes back through the replaced delete below, so it must be
// malloc-backed too (AddressSanitizer reports the mismatch otherwise).
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

// GCC can't see that the replacement operator new above is
// malloc-backed when it inline-pairs gtest's `new TestClass` with
// these deletes, so it flags free() as mismatched. It isn't.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace pc::obs::health {
namespace {

u64
counter(const MetricRegistry &reg, const std::string &name)
{
    return reg.snapshot().counterValue(name);
}

const std::string kQueryText = "pocket cloudlets";

/** One served query's stream records: its spans, then its end. */
void
feedQuery(HealthAccountant &acct, bool hit, SimTime probe, SimTime fetch,
          SimTime misc, SimTime render)
{
    acct.onEvent(SpanRecord{"probe", 0, probe});
    acct.onEvent(SpanRecord{"fetch", probe, fetch});
    acct.onEvent(SpanRecord{"misc", probe + fetch, misc});
    acct.onEvent(SpanRecord{"render", probe + fetch + misc, render});
    acct.onEvent(QueryRecord{&kQueryText, "PocketSearch", hit, false, 0,
                             0, probe + fetch + misc + render, 0.0});
}

/**
 * One community sync's device-tier stages: a failed delivery, a
 * backoff, a delivery that verifies, then Commit (carrying the apply)
 * or Reject.
 */
void
feedSync(HealthAccountant &acct, bool ok, SimTime radio, SimTime backoff,
         SimTime apply, u64 bytes)
{
    const auto stage = [&](SyncStage st, SimTime dur) {
        acct.onEvent(SyncEvent{.stage = st, .bytes = bytes, .duration = dur});
    };
    stage(SyncStage::SyncRequest, 0);
    stage(SyncStage::FrameDelivery, radio / 2);
    stage(SyncStage::Backoff, backoff);
    stage(SyncStage::FrameDelivery, radio - radio / 2);
    stage(SyncStage::CrcCheck, 0);
    stage(SyncStage::Validate, 0);
    stage(ok ? SyncStage::Commit : SyncStage::Reject, ok ? apply : 0);
}

TEST(HealthAccountant, QueryRecordsFoldIntoLedgers)
{
    MetricRegistry reg;
    HealthAccountant acct(reg);
    feedQuery(acct, true, 100, 2000, 50, 300);

    EXPECT_EQ(counter(reg, "health.device.cpu.busy_ns"), 450u);
    EXPECT_EQ(counter(reg, "health.device.cpu.ops"), 1u);
    EXPECT_EQ(counter(reg, "health.device.flash.busy_ns"), 2000u);
    EXPECT_EQ(counter(reg, "health.device.flash.ops"), 1u);
    EXPECT_EQ(counter(reg, "health.device.query.busy_ns"), 2450u);
    EXPECT_EQ(counter(reg, "health.device.query.ops"), 1u);
    EXPECT_EQ(counter(reg, "health.device.radio.backoff_ns"), 0u);
}

TEST(HealthAccountant, SyncStagesChargeApplyToCpu)
{
    MetricRegistry reg;
    HealthAccountant acct(reg);
    feedSync(acct, true, 5000, 700, 1200, 4096);

    EXPECT_EQ(counter(reg, "health.device.sync.busy_ns"), 6200u);
    EXPECT_EQ(counter(reg, "health.device.sync.ops"), 1u);
    EXPECT_EQ(counter(reg, "health.device.sync.bytes"), 4096u);
    EXPECT_EQ(counter(reg, "health.device.cpu.busy_ns"), 1200u);
    EXPECT_EQ(counter(reg, "health.device.cpu.ops"), 1u);
    EXPECT_EQ(counter(reg, "health.device.radio.backoff_ns"), 700u);
}

TEST(HealthAccountant, MissDrainCountsDrainedEntries)
{
    MetricRegistry reg;
    HealthAccountant acct(reg);
    acct.onEvent(DrainRecord{3, 9000});
    EXPECT_EQ(counter(reg, "health.device.sync.busy_ns"), 9000u);
    EXPECT_EQ(counter(reg, "health.device.sync.ops"), 3u);
}

TEST(HealthAccountant, RadioLedgerRegistersPerLink)
{
    MetricRegistry reg;
    HealthAccountant acct(reg);
    const auto ledger = acct.radioLedger("3g");
    ASSERT_NE(ledger.first, nullptr);
    ASSERT_NE(ledger.second, nullptr);
    ledger.first->bump(7000);
    ledger.second->bump();
    EXPECT_EQ(counter(reg, "health.device.radio.3g.busy_ns"), 7000u);
    EXPECT_EQ(counter(reg, "health.device.radio.3g.ops"), 1u);
}

/** Ledgers are plain counters, so registry merges must associate. */
TEST(HealthLedgers, MergeIsAssociative)
{
    const auto makeDevice = [](u64 seed) {
        auto reg = std::make_unique<MetricRegistry>();
        HealthAccountant acct(*reg);
        const SimTime t = SimTime(seed);
        feedQuery(acct, true, 10 * t, 100 * t, t, 30 * t);
        feedSync(acct, seed % 2 == 0, 1000 * t, 0, 50 * t, 512 * seed);
        acct.onEvent(DrainRecord{seed, 200 * t});
        return reg;
    };
    const auto a = makeDevice(1), b = makeDevice(2), c = makeDevice(3);

    MetricRegistry left;  // (A + B) + C
    left.mergeFrom(*a);
    left.mergeFrom(*b);
    left.mergeFrom(*c);
    MetricRegistry bc; // A + (B + C)
    bc.mergeFrom(*b);
    bc.mergeFrom(*c);
    MetricRegistry right;
    right.mergeFrom(*a);
    right.mergeFrom(bc);

    std::ostringstream l, r;
    left.snapshot().writeJson(l, true);
    right.snapshot().writeJson(r, true);
    EXPECT_EQ(l.str(), r.str());
}

SloSpec
availabilitySpec(double objective = 0.9)
{
    SloSpec s;
    s.name = "avail";
    s.kind = SloKind::Availability;
    s.objective = objective;
    s.eventCounter = "ev";
    s.badCounter = "bad";
    return s;
}

TEST(SloBurn, EmptyWindowBurnsNothing)
{
    TimeSeries ts(100);
    ts.recordCounter(10, "ev", 50);   // window 0: traffic, no errors
    ts.recordCounter(150, "other", 1); // window 1: no ev at all

    MetricRegistry reg;
    reg.counter("ev").bump(50);
    const auto out =
        evaluateSlos({availabilitySpec()}, ts, reg.snapshot());
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].burnByWindow.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0].burnByWindow[0], 0.0);
    EXPECT_DOUBLE_EQ(out[0].burnByWindow[1], 0.0);
    EXPECT_TRUE(out[0].met);
    EXPECT_FALSE(out[0].burning);
}

TEST(SloBurn, ExactBudgetExhaustionStillMeets)
{
    // objective 0.9 over 100 events allows exactly 10 bad ones:
    // consuming all 10 leaves remaining 0 but does not miss.
    TimeSeries ts(100);
    ts.recordCounter(10, "ev", 100);
    ts.recordCounter(10, "bad", 10);

    MetricRegistry reg;
    reg.counter("ev").bump(100);
    reg.counter("bad").bump(10);
    const auto out =
        evaluateSlos({availabilitySpec()}, ts, reg.snapshot());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].budgetAllowed, 10.0);
    EXPECT_DOUBLE_EQ(out[0].budgetConsumed, 10.0);
    EXPECT_DOUBLE_EQ(out[0].budgetRemaining, 0.0);
    EXPECT_TRUE(out[0].met);
    // One more bad event tips it over.
    reg.counter("bad").bump(1);
    ts.recordCounter(10, "bad", 1);
    const auto over =
        evaluateSlos({availabilitySpec()}, ts, reg.snapshot());
    EXPECT_FALSE(over[0].met);
}

TEST(SloBreach, EventsAreDeterministicAcrossEvaluations)
{
    // Two fully-bad windows: burn 10x in each, breaching both.
    TimeSeries ts(100);
    ts.recordCounter(10, "ev", 40);
    ts.recordCounter(10, "bad", 40);
    ts.recordCounter(150, "ev", 40);
    ts.recordCounter(150, "bad", 40);
    MetricRegistry reg;
    reg.counter("ev").bump(80);
    reg.counter("bad").bump(80);

    FlightRecorder recA(1), recB(1);
    const auto a =
        evaluateSlos({availabilitySpec()}, ts, reg.snapshot(), &recA);
    const auto b =
        evaluateSlos({availabilitySpec()}, ts, reg.snapshot(), &recB);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_FALSE(a[0].met);
    EXPECT_TRUE(a[0].burning);
    EXPECT_EQ(a[0].breachWindows.size(), 2u);

    const auto evA = recA.events(), evB = recB.events();
    ASSERT_EQ(evA.size(), 2u);
    ASSERT_EQ(evA.size(), evB.size());
    for (std::size_t i = 0; i < evA.size(); ++i) {
        EXPECT_EQ(evA[i].traceId, evB[i].traceId);
        EXPECT_EQ(evA[i].span, evB[i].span);
        EXPECT_EQ(evA[i].stage, SyncStage::SloBreach);
        EXPECT_FALSE(evA[i].ok);
        EXPECT_EQ(evA[i].attempt, u32(i));
        EXPECT_EQ(evA[i].start, evB[i].start);
        EXPECT_EQ(evA[i].duration, 100u);
    }
}

TEST(Analyzer, RanksByUtilizationAndComputesHeadroom)
{
    MetricRegistry reg;
    reg.counter("device.queries").bump(4);
    reg.counter("health.device.cpu.busy_ns").bump(5000);
    reg.counter("health.device.cpu.ops").bump(10);
    reg.counter("health.device.radio.3g.busy_ns").bump(8000);
    reg.counter("health.device.radio.3g.ops").bump(2);
    reg.counter("health.device.query.busy_ns").bump(13000);
    reg.counter("health.device.query.ops").bump(4);

    const auto a = analyzeHealth(reg.snapshot(), 1, 10000);
    ASSERT_EQ(a.ranked.size(), 2u);
    EXPECT_EQ(a.ranked[0].name, "device.radio.3g");
    EXPECT_DOUBLE_EQ(a.ranked[0].utilization, 0.8);
    EXPECT_DOUBLE_EQ(a.ranked[0].serviceNs, 4000.0);
    EXPECT_DOUBLE_EQ(a.ranked[0].demandNs, 2000.0);
    EXPECT_EQ(a.ranked[1].name, "device.cpu");
    EXPECT_DOUBLE_EQ(a.ranked[1].utilization, 0.5);

    EXPECT_EQ(a.bottleneck, "device.radio.3g");
    EXPECT_DOUBLE_EQ(a.maxUtilization, 0.8);
    EXPECT_DOUBLE_EQ(a.headroom, 1.25);

    // End-to-end pipelines are reported but never ranked — their mass
    // double-counts the per-component ledgers.
    ASSERT_EQ(a.pipelines.size(), 1u);
    EXPECT_EQ(a.pipelines[0].name, "device.query");
}

TEST(Analyzer, ServerCapacityIsSharedNotPerDevice)
{
    MetricRegistry reg;
    reg.counter("health.device.cpu.busy_ns").bump(1000);
    reg.counter("health.device.cpu.ops").bump(1);
    reg.counter("health.server.sync.busy_ns").bump(1000);
    reg.counter("health.server.sync.ops").bump(1);

    // 10 devices: the device component's capacity is 10x the server's,
    // so equal busy time means the server is 10x as utilized.
    const auto a = analyzeHealth(reg.snapshot(), 10, 10000);
    ASSERT_EQ(a.ranked.size(), 2u);
    EXPECT_EQ(a.ranked[0].name, "server.sync");
    EXPECT_DOUBLE_EQ(a.ranked[0].utilization, 0.1);
    EXPECT_DOUBLE_EQ(a.ranked[1].utilization, 0.01);
}

TEST(Analyzer, TiesBreakByNameAscending)
{
    MetricRegistry reg;
    reg.counter("health.device.zeta.busy_ns").bump(100);
    reg.counter("health.device.zeta.ops").bump(1);
    reg.counter("health.device.alpha.busy_ns").bump(100);
    reg.counter("health.device.alpha.ops").bump(1);
    const auto a = analyzeHealth(reg.snapshot(), 1, 1000);
    ASSERT_EQ(a.ranked.size(), 2u);
    EXPECT_EQ(a.ranked[0].name, "device.alpha");
    EXPECT_EQ(a.ranked[1].name, "device.zeta");
    EXPECT_EQ(a.bottleneck, "device.alpha");
}

TEST(Analyzer, IdleFleetHasNoBottleneck)
{
    MetricRegistry reg;
    const auto a = analyzeHealth(reg.snapshot(), 4, 1000);
    EXPECT_TRUE(a.ranked.empty());
    EXPECT_TRUE(a.bottleneck.empty());
    EXPECT_DOUBLE_EQ(a.headroom, 0.0);
}

/** Small world for the device-level neutrality/tiling suite. */
workload::UniverseConfig
tinyUniverse()
{
    workload::UniverseConfig cfg;
    cfg.navResults = 200;
    cfg.nonNavResults = 800;
    cfg.navHead = 30;
    cfg.nonNavHead = 30;
    cfg.habitNavHead = 20;
    cfg.habitNonNavHead = 15;
    return cfg;
}

/** Install a community cache of results 0..19; returns its contents. */
core::CacheContents
warmCache(device::MobileDevice &dev, workload::QueryUniverse &uni)
{
    workload::SearchLog log(uni);
    for (u32 r = 0; r < 20; ++r) {
        const u32 q = uni.result(r).queries.front().first;
        for (int i = 0; i < int(40 - r); ++i)
            log.add({1, SimTime(i), {q, r},
                     workload::DeviceType::Smartphone});
    }
    const auto table = logs::TripletTable::fromLog(log);
    core::CacheContentBuilder builder(uni);
    core::ContentPolicy policy;
    policy.kind = core::ThresholdKind::VolumeShare;
    policy.volumeShare = 1.0;
    core::CacheContents contents = builder.build(table, policy);
    dev.installCommunityCache(contents);
    return contents;
}

struct NeutralityPhase
{
    SimTime latency = 0;
    SimTime radio = 0;
    SimTime backoff = 0;
    u64 hits = 0;
    u64 degraded = 0;
    u64 queued = 0;
    bool syncOk = false;
    u32 syncAttempts = 0;
    u32 corruptRejected = 0;
    SimTime syncTime = 0;
    u64 drained = 0;
    SimTime drainTime = 0;
    u64 rngDraws = 0;
    u64 allocs = 0;
};

/**
 * One phase of the cost-contract check: a fresh device under a seeded
 * fault plan serving a mixed hit/miss workload, then running a faulty
 * community sync and a miss-queue drain, with or without a health
 * accountant and a flight recorder attached (the chaos + health fleet
 * shape has both). Everything inside that window is summed; the
 * accountant (whose construction registers handles — the cold path),
 * the recorder (whose ring is preallocated) and the delta are built
 * outside it.
 */
NeutralityPhase
runNeutralityPhase(workload::QueryUniverse &uni, bool attach,
                   bool recorder = false)
{
    device::MobileDevice dev(uni);
    const core::CacheContents warm = warmCache(dev, uni);
    core::CacheContents next = warm;
    next.pairs.erase(next.pairs.begin(), next.pairs.begin() + 3);
    const core::CommunityDelta delta = core::diffContents(warm, next, 1, 2);

    fault::FaultConfig fc;
    fc.seed = 99;
    fc.radio.exchangeFailureRate = 0.4;
    fc.radio.latencySpikeRate = 0.2;
    fc.radio.payloadCorruptRate = 0.5;
    fc.radio.outageShare = 0.3;
    fc.radio.meanOutageDuration = 60 * kSecond;
    fault::FaultPlan plan(fc);
    dev.attachFaults(&plan);

    MetricRegistry reg;
    std::optional<HealthAccountant> acct;
    if (attach) {
        acct.emplace(reg);
        dev.attachHealth(&*acct);
    }
    FlightRecorder rec(0);
    if (recorder)
        dev.attachFlightRecorder(&rec);

    NeutralityPhase out;
    for (u32 i = 0; i < 40; ++i) {
        const u32 r = i % 2 == 0 ? i / 2 : 500 + i;
        const workload::PairRef pair{
            uni.result(r).queries.front().first, r};
        const auto path = i % 2 == 0 ? device::ServePath::PocketSearch
                                     : device::ServePath::ThreeG;
        const u64 a0 = g_allocs.load(std::memory_order_relaxed);
        const auto q = dev.serveQuery(pair, path, false);
        out.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
        out.latency += q.latency;
        out.radio += q.radioTime;
        out.backoff += q.backoffTime;
        out.hits += q.cacheHit;
        out.degraded += q.degraded;
    }
    // Misses the radio cannot fetch within the budget are queued for
    // the drain below.
    for (u32 i = 0; i < 20; ++i) {
        const u32 r = 900 + i;
        const workload::PairRef pair{
            uni.result(r).queries.front().first, r};
        const u64 a0 = g_allocs.load(std::memory_order_relaxed);
        const auto q =
            dev.serveQuery(pair, device::ServePath::PocketSearch, false);
        out.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
        out.latency += q.latency;
        out.degraded += q.degraded;
    }
    out.queued = dev.missQueue().size();

    // Coverage returns before the sync and the drains.
    dev.advanceTime(120 * kSecond);
    const u64 a0 = g_allocs.load(std::memory_order_relaxed);
    const auto sync = dev.syncCommunityUpdate(delta);
    out.syncOk = sync.ok;
    out.syncAttempts = sync.attempts;
    out.corruptRejected = sync.corruptRejected;
    out.syncTime = sync.time;
    for (u32 i = 0; i < 5 && !dev.missQueue().empty(); ++i) {
        const auto drain = dev.syncMissQueue();
        out.drained += drain.synced;
        out.drainTime += drain.time;
    }
    out.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    out.rngDraws = plan.rngDraws();
    dev.attachHealth(nullptr);
    dev.attachFlightRecorder(nullptr);
    dev.attachFaults(nullptr);
    return out;
}

void
expectNeutral(const NeutralityPhase &off, const NeutralityPhase &on)
{
    EXPECT_EQ(off.latency, on.latency);
    EXPECT_EQ(off.radio, on.radio);
    EXPECT_EQ(off.backoff, on.backoff);
    EXPECT_EQ(off.hits, on.hits);
    EXPECT_EQ(off.degraded, on.degraded);
    EXPECT_EQ(off.queued, on.queued);
    EXPECT_EQ(off.syncOk, on.syncOk);
    EXPECT_EQ(off.syncAttempts, on.syncAttempts);
    EXPECT_EQ(off.corruptRejected, on.corruptRejected);
    EXPECT_EQ(off.syncTime, on.syncTime);
    EXPECT_EQ(off.drained, on.drained);
    EXPECT_EQ(off.drainTime, on.drainTime);
    EXPECT_GT(on.drained, 0u) << "the drains must fetch queued misses";
    EXPECT_GT(on.syncAttempts + on.corruptRejected, 1u)
        << "the sync must meet a fault";
    EXPECT_EQ(off.rngDraws, on.rngDraws)
        << "attached views must not consume fault-plan RNG";
    EXPECT_EQ(off.allocs, on.allocs)
        << "attached views must not allocate on the hot path";
}

TEST(HealthNeutrality, AttachIsBehaviourRngAndAllocNeutral)
{
    workload::QueryUniverse uni(tinyUniverse());
    const NeutralityPhase off = runNeutralityPhase(uni, false);
    {
        SCOPED_TRACE("health accountant attached");
        expectNeutral(off, runNeutralityPhase(uni, true));
    }
    {
        SCOPED_TRACE("health accountant and flight recorder attached");
        expectNeutral(off, runNeutralityPhase(uni, true, true));
    }
}

TEST(HealthNeutrality, SpanTilingHoldsWithAccountingAttached)
{
    workload::QueryUniverse uni(tinyUniverse());
    device::MobileDevice dev(uni);
    warmCache(dev, uni);

    MetricRegistry reg;
    Tracer tracer;
    dev.attachMetrics(&reg);
    dev.attachTracer(&tracer, "device");
    HealthAccountant acct(reg);
    dev.attachHealth(&acct);

    fault::FaultConfig fc;
    fc.seed = 7;
    fc.radio.exchangeFailureRate = 0.6;
    fault::FaultPlan plan(fc);
    dev.attachFaults(&plan);

    SimTime tiled = 0;
    for (u32 i = 0; i < 20; ++i) {
        const u32 r = 500 + i;
        const workload::PairRef pair{
            uni.result(r).queries.front().first, r};
        const std::size_t before = tracer.spans().size();
        const auto q =
            dev.serveQuery(pair, device::ServePath::ThreeG, false);
        SimTime componentSum = 0;
        for (std::size_t s = before; s < tracer.spans().size(); ++s) {
            if (tracer.spans()[s].category == "device")
                componentSum += tracer.spans()[s].duration;
        }
        EXPECT_EQ(componentSum, q.latency)
            << "device spans must still tile the latency exactly";
        tiled += q.latency;
    }
    // The ledgers must agree with the tiling they observed: busy plus
    // idle backoff covers every query's end-to-end latency.
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counterValue("health.device.query.busy_ns"),
              u64(tiled));
    EXPECT_EQ(snap.counterValue("health.device.query.ops"), 20u);
    const u64 busyParts =
        snap.counterValue("health.device.cpu.busy_ns") +
        snap.counterValue("health.device.flash.busy_ns") +
        snap.counterValue("health.device.radio.3g.busy_ns") +
        snap.counterValue("health.device.radio.backoff_ns");
    EXPECT_EQ(busyParts, u64(tiled))
        << "component ledgers + idle backoff must tile the pipeline "
           "ledger";
}

/** Run a small fleet and return (analysis, artifact bytes). */
std::pair<HealthAnalysis, std::string>
runSmallFleet(const harness::Workbench &wb, bool storm,
              unsigned threads)
{
    server::ServiceConfig scfg;
    scfg.build.shards = 2;
    scfg.build.threads = 2;
    scfg.healthAccounting = true;
    server::CloudUpdateService svc(wb.universe(), scfg);
    svc.ingest(wb.buildLog());

    harness::FleetRunConfig cfg;
    cfg.devices = 16;
    cfg.months = 4;
    cfg.threads = threads;
    cfg.cloud = &svc;
    cfg.health = true;
    if (storm) {
        cfg.outageStartMonth = 0;
        cfg.outageMonths = cfg.months;
        cfg.outageFaults.radio.outageShare = 0.999;
        cfg.outageFaults.radio.meanOutageDuration =
            10ll * workload::kMonth;
        cfg.outageFaults.radio.exchangeFailureRate = 0.0;
        cfg.outageFaults.radio.latencySpikeRate = 0.0;
    }

    FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    FleetCollector collector(fc);
    harness::runFleet(wb, cfg, collector);

    const MetricsSnapshot snap = collector.fleetRegistry().snapshot();
    auto analysis = analyzeHealth(snap, cfg.devices,
                                  SimTime(cfg.months) * workload::kMonth);
    analysis.slos = evaluateSlos(defaultFleetSlos(),
                                 collector.fleetSeries(), snap);

    HealthReport r;
    r.scenarios.emplace_back(storm ? "storm" : "baseline", analysis);
    std::ostringstream os;
    writeHealthJson(os, r);
    return {std::move(analysis), os.str()};
}

TEST(FleetHealth, OutageStormFlipsTheBottleneck)
{
    harness::Workbench wb(harness::smallWorkbenchConfig());
    const auto base = runSmallFleet(wb, false, 1);
    const auto storm = runSmallFleet(wb, true, 1);

    EXPECT_EQ(base.first.bottleneck, "device.radio.3g");
    EXPECT_EQ(storm.first.bottleneck, "device.cpu");
    EXPECT_NE(base.first.bottleneck, storm.first.bottleneck);
    EXPECT_GT(base.first.headroom, 0.0);

    // The storm must also burn the availability budget.
    const auto findSlo = [](const HealthAnalysis &a,
                            const std::string &name) {
        for (const auto &st : a.slos)
            if (st.spec.name == name)
                return &st;
        return static_cast<const SloStatus *>(nullptr);
    };
    const SloStatus *baseAvail =
        findSlo(base.first, "query_availability");
    const SloStatus *stormAvail =
        findSlo(storm.first, "query_availability");
    ASSERT_NE(baseAvail, nullptr);
    ASSERT_NE(stormAvail, nullptr);
    EXPECT_TRUE(baseAvail->met);
    EXPECT_FALSE(stormAvail->met);
    EXPECT_TRUE(stormAvail->burning);
}

TEST(FleetHealth, ArtifactIsByteIdenticalAcrossThreadCounts)
{
    harness::Workbench wb(harness::smallWorkbenchConfig());
    const auto t1 = runSmallFleet(wb, false, 1);
    const auto t4 = runSmallFleet(wb, false, 4);
    EXPECT_EQ(t1.second, t4.second)
        << "health artifact must not depend on the thread count";
}

} // namespace
} // namespace pc::obs::health
