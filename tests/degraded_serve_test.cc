/**
 * @file
 * Graceful-degradation tests: under injected radio faults the device
 * must never surface an error — cached queries still hit, unreachable
 * misses degrade to stale/offline answers and queue for later sync —
 * and the resilience counters must account for every injected fault.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/delta.h"
#include "device/mobile_device.h"
#include "logs/triplets.h"

namespace pc::device {
namespace {

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

class DegradedServeTest : public ::testing::Test
{
  protected:
    DegradedServeTest() : uni_(tinyUniverse()), device_(uni_)
    {
        warmCache(device_);
    }

    void
    warmCache(MobileDevice &device)
    {
        device.installCommunityCache(warmContents());
    }

    /** The 20 head pairs every fixture device starts with. */
    core::CacheContents
    warmContents()
    {
        workload::SearchLog log(uni_);
        for (u32 r = 0; r < 20; ++r) {
            const u32 q = uni_.result(r).queries.front().first;
            for (int i = 0; i < int(40 - r); ++i) {
                log.add({1, SimTime(i), {q, r},
                         workload::DeviceType::Smartphone});
            }
        }
        const auto table = logs::TripletTable::fromLog(log);
        core::CacheContentBuilder builder(uni_);
        core::ContentPolicy policy;
        policy.kind = core::ThresholdKind::VolumeShare;
        policy.volumeShare = 1.0;
        return builder.build(table, policy);
    }

    workload::PairRef
    cachedPair(u32 r = 0)
    {
        return {uni_.result(r).queries.front().first, r};
    }

    workload::PairRef
    uncachedPair(u32 r = 500)
    {
        return {uni_.result(r).queries.front().first, r};
    }

    workload::QueryUniverse uni_;
    MobileDevice device_;
};

TEST_F(DegradedServeTest, TwentyPercentFailureRateSurfacesNoErrors)
{
    fault::FaultConfig fc;
    fc.seed = 2011;
    fc.radio.exchangeFailureRate = 0.2;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    u64 radio_queries = 0, attempts_seen = 0, hits = 0;
    for (u32 i = 0; i < 120; ++i) {
        const bool cached = (i % 3 != 2);
        const auto pair =
            cached ? cachedPair(i % 20) : uncachedPair(400 + i);
        const auto out =
            device_.serveQuery(pair, ServePath::PocketSearch,
                               /*record_click=*/false);
        // Graceful degradation means the caller NEVER sees an error:
        // every query yields a rendered page with sane accounting.
        ASSERT_GT(out.latency, 0);
        ASSERT_GT(out.energy, 0.0);
        ASSERT_GT(out.renderTime, 0);
        if (cached) {
            EXPECT_TRUE(out.cacheHit)
                << "faults must not break cache hits (query " << i << ")";
            EXPECT_EQ(out.attempts, 0u);
            EXPECT_FALSE(out.degraded);
            ++hits;
        } else {
            ++radio_queries;
            attempts_seen += out.attempts;
            EXPECT_GE(out.attempts, 1u);
            EXPECT_LE(out.attempts, device_.config().retry.maxAttempts);
            if (out.degraded) {
                EXPECT_FALSE(out.cacheHit);
            }
        }
    }
    EXPECT_EQ(hits, 80u);

    // Every injected fault is accounted for by a device counter.
    const auto &rs = device_.resilience();
    const auto &in = plan.stats();
    EXPECT_EQ(rs.failedAttempts, in.exchangeFailures);
    EXPECT_GT(rs.failedAttempts, 0u) << "20% of ~40 queries must fail";
    EXPECT_EQ(rs.noCoverageAttempts, in.outageAttempts);
    EXPECT_EQ(rs.latencySpikes, in.latencySpikes);
    EXPECT_EQ(rs.radioAttempts, attempts_seen);
    EXPECT_EQ(rs.retries, rs.radioAttempts - radio_queries);
    EXPECT_EQ(rs.degradedServes, rs.staleServes + rs.offlinePages);
    EXPECT_EQ(rs.queuedMisses, rs.degradedServes);
    EXPECT_EQ(device_.missQueue().size(),
              rs.queuedMisses - rs.syncedMisses);
}

TEST_F(DegradedServeTest, UnreachableCloudDegradesThenSyncs)
{
    fault::FaultConfig fc;
    fc.seed = 5;
    fc.radio.exchangeFailureRate = 1.0; // the cloud is unreachable
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    // Cache hits are untouched by a dead radio.
    const auto hit = device_.serveQuery(cachedPair(0),
                                        ServePath::PocketSearch, false);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_FALSE(hit.degraded);

    // An uncached query degrades to the offline page and queues.
    const auto p1 = uncachedPair(501);
    const auto offline =
        device_.serveQuery(p1, ServePath::PocketSearch, true);
    EXPECT_FALSE(offline.cacheHit);
    EXPECT_TRUE(offline.degraded);
    EXPECT_FALSE(offline.staleServe);
    EXPECT_EQ(offline.attempts, device_.config().retry.maxAttempts);
    EXPECT_GT(offline.backoffTime, 0);

    // A cached query string whose clicked result is NOT cached serves
    // the stale cached results instead of the offline page.
    const workload::PairRef p2{cachedPair(1).query, 502};
    const auto stale =
        device_.serveQuery(p2, ServePath::PocketSearch, true);
    EXPECT_TRUE(stale.degraded);
    EXPECT_TRUE(stale.staleServe);
    EXPECT_GT(stale.fetchTime, 0);

    const auto &rs = device_.resilience();
    EXPECT_EQ(rs.degradedServes, 2u);
    EXPECT_EQ(rs.offlinePages, 1u);
    EXPECT_EQ(rs.staleServes, 1u);
    EXPECT_EQ(rs.queuedMisses, 2u);
    ASSERT_EQ(device_.missQueue().size(), 2u);

    // While the radio is still dead, a sync pass makes no progress but
    // keeps the queue intact.
    const auto stuck = device_.syncMissQueue();
    EXPECT_EQ(stuck.synced, 0u);
    EXPECT_EQ(stuck.remaining, 2u);

    // Coverage returns: the queue drains and the missed pairs are
    // learned as if they had been clicked online.
    device_.attachFaults(nullptr);
    const auto sync = device_.syncMissQueue();
    EXPECT_EQ(sync.synced, 2u);
    EXPECT_EQ(sync.remaining, 0u);
    EXPECT_GT(sync.time, 0);
    EXPECT_GT(sync.energy, 0.0);
    EXPECT_TRUE(device_.missQueue().empty());
    EXPECT_EQ(device_.resilience().syncedMisses, 2u);
    EXPECT_TRUE(device_.pocketSearch().containsPair(p1));
    EXPECT_TRUE(device_.pocketSearch().containsPair(p2));
    const auto again =
        device_.serveQuery(p1, ServePath::PocketSearch, false);
    EXPECT_TRUE(again.cacheHit) << "synced miss serves locally next time";
}

TEST_F(DegradedServeTest, MixedFaultCountersBalanceExactly)
{
    fault::FaultConfig fc;
    fc.seed = 77;
    fc.radio.exchangeFailureRate = 0.3;
    fc.radio.latencySpikeRate = 0.25;
    fc.radio.outageShare = 0.3;
    fc.radio.meanOutageDuration = 20 * kSecond;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    for (u32 i = 0; i < 60; ++i) {
        device_.serveQuery(uncachedPair(300 + i), ServePath::PocketSearch,
                           false);
        device_.advanceTime(5 * kSecond);
    }
    device_.syncMissQueue();

    const auto &rs = device_.resilience();
    const auto &in = plan.stats();
    EXPECT_EQ(rs.failedAttempts, in.exchangeFailures);
    EXPECT_EQ(rs.noCoverageAttempts, in.outageAttempts);
    EXPECT_EQ(rs.latencySpikes, in.latencySpikes);
    EXPECT_GT(in.exchangeFailures, 0u);
    EXPECT_GT(in.outageAttempts, 0u);
    EXPECT_GT(in.latencySpikes, 0u);
    // Every attempt is a success, a failure, or an outage probe.
    EXPECT_EQ(rs.radioAttempts,
              rs.failedAttempts + rs.noCoverageAttempts +
                  (rs.radioAttempts - rs.failedAttempts -
                   rs.noCoverageAttempts));
    EXPECT_EQ(rs.degradedServes, rs.staleServes + rs.offlinePages);
    EXPECT_EQ(device_.missQueue().size(),
              rs.queuedMisses - rs.syncedMisses);
}

TEST_F(DegradedServeTest, ZeroRatePlanChangesNothing)
{
    // Attaching a plan whose rates are all zero must leave every number
    // byte-identical to the unfaulted device.
    MobileDevice vanilla(uni_);
    warmCache(vanilla);
    fault::FaultPlan plan; // defaults: everything disabled
    device_.attachFaults(&plan);

    for (u32 i = 0; i < 10; ++i) {
        const auto pair =
            (i % 2) ? cachedPair(i) : uncachedPair(600 + i);
        const auto a =
            device_.serveQuery(pair, ServePath::PocketSearch, true);
        const auto b =
            vanilla.serveQuery(pair, ServePath::PocketSearch, true);
        ASSERT_EQ(a.cacheHit, b.cacheHit) << "query " << i;
        ASSERT_EQ(a.latency, b.latency) << "query " << i;
        ASSERT_DOUBLE_EQ(a.energy, b.energy) << "query " << i;
        ASSERT_EQ(a.attempts, b.attempts);
        ASSERT_EQ(a.degraded, b.degraded);
    }
    EXPECT_EQ(device_.resilience(), vanilla.resilience());
    EXPECT_EQ(device_.resilience().retries, 0u);
    EXPECT_EQ(device_.resilience().degradedServes, 0u);
    EXPECT_EQ(plan.stats(), fault::InjectedStats{});
}

TEST_F(DegradedServeTest, FaultyWorkloadIsDeterministic)
{
    auto run = [this]() {
        MobileDevice d(uni_);
        warmCache(d);
        fault::FaultConfig fc;
        fc.seed = 31337;
        fc.radio.exchangeFailureRate = 0.25;
        fc.radio.latencySpikeRate = 0.15;
        fc.radio.outageShare = 0.2;
        fc.radio.meanOutageDuration = 30 * kSecond;
        fault::FaultPlan plan(fc);
        d.attachFaults(&plan);
        SimTime latency = 0;
        MicroJoules energy = 0;
        for (u32 i = 0; i < 50; ++i) {
            const auto out = d.serveQuery(uncachedPair(200 + i),
                                          ServePath::PocketSearch, true);
            latency += out.latency;
            energy += out.energy;
            d.advanceTime(3 * kSecond);
        }
        d.attachFaults(nullptr);
        d.syncMissQueue();
        return std::tuple(latency, energy, d.resilience());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_DOUBLE_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

// -- Golden pins for the shared radio retry loop ---------------------------
//
// Query misses, community syncs and the miss-queue drain all run through
// one attempt loop. These cases pin, for one seed with outages, failures,
// latency spikes and corrupt frames, the exact span list, power-segment
// list and flight-recorder chain, so a reordered RNG draw, segment or
// event fails here by name rather than as a drifted bench baseline.

/** The golden fault mix: every radio fault kind fires under seed 4. */
fault::FaultConfig
goldenFaults()
{
    fault::FaultConfig fc;
    fc.seed = 4;
    fc.radio.outageShare = 0.3;
    fc.radio.meanOutageDuration = 10 * kSecond;
    fc.radio.exchangeFailureRate = 0.3;
    fc.radio.latencySpikeRate = 0.3;
    fc.radio.payloadCorruptRate = 0.5;
    return fc;
}

struct PinnedSpan
{
    const char *name;
    SimTime start;
    SimTime duration;
};

struct PinnedSegment
{
    const char *label;
    SimTime duration;
    MilliWatts power;
};

struct PinnedEvent
{
    obs::SyncStage stage;
    u32 attempt;
    SimTime start;
    SimTime duration;
    u64 detail;
};

/** Pasteable dump of the actual list, printed on any mismatch. */
std::string
dumpSpans(const std::deque<obs::TraceSpan> &spans)
{
    std::ostringstream os;
    for (const auto &sp : spans)
        os << "        {\"" << sp.name << "\", " << sp.start << ", "
           << sp.duration << "},\n";
    return os.str();
}

std::string
dumpSegments(const std::vector<PowerSegment> &segs)
{
    std::ostringstream os;
    os.precision(17);
    for (const auto &sg : segs)
        os << "        {\"" << sg.label << "\", " << sg.duration << ", "
           << sg.power << "},\n";
    return os.str();
}

std::string
dumpEvents(const std::vector<obs::SyncEvent> &evs)
{
    std::ostringstream os;
    for (const auto &ev : evs)
        os << "        {obs::SyncStage(" << int(ev.stage) << "), "
           << ev.attempt << ", " << ev.start << ", " << ev.duration
           << ", " << ev.detail << "},\n";
    return os.str();
}

TEST_F(DegradedServeTest, GoldenFaultyQueryTraceIsPinned)
{
    fault::FaultPlan plan(goldenFaults());
    device_.attachFaults(&plan);
    obs::Tracer tracer;
    device_.attachTracer(&tracer);

    // A hit, then three misses: served after a retry, then two that
    // exhaust every attempt and degrade.
    std::vector<QueryOutcome> outs;
    outs.push_back(
        device_.serveQuery(cachedPair(0), ServePath::PocketSearch, true));
    for (u32 r = 300; r < 303; ++r)
        outs.push_back(device_.serveQuery(uncachedPair(r),
                                          ServePath::PocketSearch, true));
    EXPECT_TRUE(outs[0].cacheHit);
    EXPECT_FALSE(outs[1].degraded);
    EXPECT_EQ(outs[1].attempts, 2u);
    EXPECT_TRUE(outs[2].degraded);
    EXPECT_TRUE(outs[3].degraded);
    const auto &rs = device_.resilience();
    EXPECT_GT(rs.noCoverageAttempts, 0u);
    EXPECT_GT(rs.failedAttempts, 0u);
    EXPECT_GT(rs.latencySpikes, 0u);

    static const PinnedSpan kSpans[] = {
        {"probe", 0, 10000},
        {"fetch", 10000, 4788640},
        {"misc", 4798640, 7000000},
        {"render", 11798640, 361000000},
        {"beewis8", 0, 372798640},
        {"probe", 372798640, 10000},
        {"radio-failed", 372808640, 4590786065},
        {"backoff", 4963594705, 303112981},
        {"radio-exchange", 5266707686, 15205226668},
        {"render", 20471934354, 361000000},
        {"misc", 20832934354, 7000000},
        {"muplaimnex pletoushilste neljeet", 372798640, 20467135714},
        {"probe", 20839934354, 10000},
        {"radio-no-coverage", 20839944354, 800000000},
        {"backoff", 21639944354, 366658960},
        {"radio-no-coverage", 22006603314, 800000000},
        {"backoff", 22806603314, 675240848},
        {"radio-no-coverage", 23481844162, 800000000},
        {"backoff", 24281844162, 1838123258},
        {"radio-no-coverage", 26119967420, 800000000},
        {"render", 26919967420, 361000000},
        {"misc", 27280967420, 7000000},
        {"ploulbrirbomvil", 20839934354, 6448033066},
        {"probe", 27287967420, 10000},
        {"radio-no-coverage", 27287977420, 800000000},
        {"backoff", 28087977420, 359341662},
        {"radio-no-coverage", 28447319082, 800000000},
        {"backoff", 29247319082, 969129958},
        {"radio-no-coverage", 30216449040, 800000000},
        {"backoff", 31016449040, 1442769514},
        {"radio-no-coverage", 32459218554, 800000000},
        {"render", 33259218554, 361000000},
        {"misc", 33620218554, 7000000},
        {"zezain", 27287967420, 6339251134},
    };
    const auto &spans = tracer.spans();
    ASSERT_EQ(spans.size(), std::size(kSpans)) << dumpSpans(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].name, kSpans[i].name) << "span " << i;
        EXPECT_EQ(spans[i].start, kSpans[i].start) << "span " << i;
        EXPECT_EQ(spans[i].duration, kSpans[i].duration) << "span " << i;
    }

    // The served-after-retry miss: probe, two attempts' radio segments
    // with a backoff between them, render, misc, learn.
    static const PinnedSegment kSegments[] = {
        {"probe", 10000, 550},
        {"wakeup", 1800000000, 1050},
        {"handshake", 1290786065, 1150},
        {"stall", 1500000000, 1150},
        {"radio-tail", 2500000000, 400},
        {"backoff", 303112981, 550},
        {"handshake", 2500000000, 1150},
        {"uplink", 27306667, 1150},
        {"server", 250000000, 950},
        {"downlink", 1024000000, 1150},
        {"congestion", 11403920001, 950},
        {"radio-tail", 2500000000, 400},
        {"render", 361000000, 850},
        {"misc", 7000000, 550},
        {"learn", 4663840, 550},
    };
    const auto &segs = outs[1].trace;
    ASSERT_EQ(segs.size(), std::size(kSegments)) << dumpSegments(segs);
    for (std::size_t i = 0; i < segs.size(); ++i) {
        EXPECT_EQ(segs[i].label, kSegments[i].label) << "segment " << i;
        EXPECT_EQ(segs[i].duration, kSegments[i].duration)
            << "segment " << i;
        EXPECT_EQ(segs[i].power, kSegments[i].power) << "segment " << i;
    }
}

TEST_F(DegradedServeTest, GoldenFaultySyncChainIsPinned)
{
    MobileDevice dev(uni_);
    fault::FaultPlan plan(goldenFaults());
    dev.attachFaults(&plan);
    obs::FlightRecorder rec(7);
    dev.attachFlightRecorder(&rec);

    // A full install of the warm-cache contents, twice: the first sync
    // aborts after every attempt, the second commits after a corrupt
    // frame.
    const auto delta =
        core::diffContents(core::CacheContents{}, warmContents(), 0, 1);
    const auto first = dev.syncCommunityUpdate(delta);
    const auto second = dev.syncCommunityUpdate(delta);
    EXPECT_FALSE(first.ok);
    EXPECT_EQ(first.attempts, 4u);
    EXPECT_EQ(first.corruptRejected, 2u);
    EXPECT_TRUE(second.ok);
    EXPECT_EQ(second.attempts, 3u);
    EXPECT_EQ(second.corruptRejected, 1u);
    const auto &rs = dev.resilience();
    EXPECT_GT(rs.noCoverageAttempts, 0u);
    EXPECT_GT(rs.failedAttempts, 0u);

    using Stage = obs::SyncStage;
    static const PinnedEvent kEvents[] = {
        {Stage::SyncRequest, 0, 0, 0, 0},
        {Stage::FrameDelivery, 1, 0, 4070308751, 2},
        {Stage::Backoff, 1, 4070308751, 303112981, 0},
        {Stage::FrameDelivery, 2, 4373421732, 11432266668, 0},
        {Stage::CrcCheck, 2, 15805688400, 0, 4},
        {Stage::Backoff, 2, 15805688400, 675240848, 0},
        {Stage::FrameDelivery, 3, 16480929248, 800000000, 1},
        {Stage::Backoff, 3, 17280929248, 1437366649, 0},
        {Stage::FrameDelivery, 4, 18718295897, 18632266668, 0},
        {Stage::CrcCheck, 4, 37350562565, 0, 4},
        {Stage::Abort, 4, 37350562565, 0, 2},
        {Stage::SyncRequest, 0, 37350562565, 0, 0},
        {Stage::FrameDelivery, 1, 37350562565, 2858066667, 0},
        {Stage::CrcCheck, 1, 40208629232, 0, 4},
        {Stage::Backoff, 1, 40208629232, 428476089, 0},
        {Stage::FrameDelivery, 2, 40637105321, 2978085377, 2},
        {Stage::Backoff, 2, 43615190698, 745434385, 0},
        {Stage::FrameDelivery, 3, 44360625083, 2858066667, 0},
        {Stage::CrcCheck, 3, 47218691750, 0, 0},
        {Stage::Validate, 0, 47218691750, 0, 0},
        {Stage::Commit, 0, 47218691750, 73276800, 20},
    };
    const auto evs = rec.events();
    ASSERT_EQ(evs.size(), std::size(kEvents)) << dumpEvents(evs);
    for (std::size_t i = 0; i < evs.size(); ++i) {
        EXPECT_EQ(evs[i].stage, kEvents[i].stage) << "event " << i;
        EXPECT_EQ(evs[i].attempt, kEvents[i].attempt) << "event " << i;
        EXPECT_EQ(evs[i].start, kEvents[i].start) << "event " << i;
        EXPECT_EQ(evs[i].duration, kEvents[i].duration) << "event " << i;
        EXPECT_EQ(evs[i].detail, kEvents[i].detail) << "event " << i;
    }
}

} // namespace
} // namespace pc::device
