/**
 * @file
 * Cross-layer observability integration tests: a device wired to a
 * metrics registry and a tracer, under fault injection, must produce
 * (a) trace spans whose per-query "device"-category durations sum to
 * the reported end-to-end latency EXACTLY (probe + fetch/exchange +
 * backoff + render tiling, no gaps, no double counting), (b) an
 * umbrella "query" span matching the latency, (c) registry counters
 * that mirror exactly the counts the device's layers keep (resilience,
 * serving, per-link radio totals and health ledgers), across detach
 * and re-attach, and (d) valid Chrome trace JSON.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/delta.h"
#include "device/mobile_device.h"
#include "logs/triplets.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

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

class ObsIntegrationTest : public ::testing::Test
{
  protected:
    ObsIntegrationTest() : uni_(tinyUniverse()), device_(uni_)
    {
        device_.attachMetrics(&registry_);
        device_.attachTracer(&tracer_, "device");
        warmCache();
    }

    /** Community contents caching results 0..19 under their head query. */
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

    void warmCache() { device_.installCommunityCache(warmContents()); }

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

    /**
     * Serve one query and check the span-tiling invariant: the spans
     * recorded for it (category "device") sum exactly to its latency,
     * and the umbrella span (category "query") equals the latency.
     * @return The outcome.
     */
    QueryOutcome
    serveAndCheckSpans(const workload::PairRef &pair, ServePath path)
    {
        const std::size_t before = tracer_.spans().size();
        const SimTime t0 = device_.now();
        const auto out = device_.serveQuery(pair, path, false);

        SimTime componentSum = 0;
        SimTime umbrella = -1;
        for (std::size_t i = before; i < tracer_.spans().size(); ++i) {
            const auto &sp = tracer_.spans()[i];
            EXPECT_GE(sp.start, t0);
            EXPECT_LE(sp.start + sp.duration, t0 + out.latency);
            if (sp.category == "device")
                componentSum += sp.duration;
            else if (sp.category == "query")
                umbrella = sp.duration;
        }
        EXPECT_EQ(componentSum, out.latency)
            << "device spans must tile the query latency exactly";
        EXPECT_EQ(umbrella, out.latency)
            << "umbrella span must equal the end-to-end latency";
        return out;
    }

    workload::QueryUniverse uni_;
    MobileDevice device_;
    obs::MetricRegistry registry_;
    obs::Tracer tracer_;
};

TEST_F(ObsIntegrationTest, CacheHitSpansTileLatency)
{
    const auto out =
        serveAndCheckSpans(cachedPair(), ServePath::PocketSearch);
    EXPECT_TRUE(out.cacheHit);
    EXPECT_EQ(registry_.counter("device.queries").value(), 1u);
    EXPECT_EQ(registry_.counter("device.cache_hits").value(), 1u);
}

TEST_F(ObsIntegrationTest, RadioMissSpansTileLatency)
{
    const auto out =
        serveAndCheckSpans(uncachedPair(), ServePath::ThreeG);
    EXPECT_FALSE(out.cacheHit);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(registry_.counter("device.radio.attempts").value(), 1u);
}

TEST_F(ObsIntegrationTest, FaultedRetriesAndBackoffsStillTileExactly)
{
    // High failure rate forces multi-attempt queries with backoff
    // spans; the tiling invariant must hold through all of it.
    fault::FaultConfig fc;
    fc.seed = 7;
    fc.radio.exchangeFailureRate = 0.6;
    fc.radio.latencySpikeRate = 0.3;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    u64 sawRetries = 0;
    u64 sawDegraded = 0;
    for (u32 i = 0; i < 30; ++i) {
        const auto out = serveAndCheckSpans(uncachedPair(500 + i),
                                            ServePath::PocketSearch);
        if (out.attempts > 1)
            ++sawRetries;
        if (out.degraded)
            ++sawDegraded;
        device_.advanceTime(kSecond);
    }
    EXPECT_GT(sawRetries, 0u)
        << "seeded fault plan should force at least one retry";

    // The registry counters must agree with the device's own ledger.
    const auto &res = device_.resilience();
    const auto snap = registry_.snapshot();
    EXPECT_EQ(snap.counterValue("device.radio.attempts"),
              res.radioAttempts);
    EXPECT_EQ(snap.counterValue("device.radio.retries"), res.retries);
    EXPECT_EQ(snap.counterValue("device.radio.failed"),
              res.failedAttempts);
    EXPECT_EQ(snap.counterValue("device.radio.latency_spikes"),
              res.latencySpikes);
    EXPECT_EQ(snap.counterValue("device.degraded.serves"),
              res.degradedServes);
    EXPECT_EQ(snap.counterValue("device.degraded.stale"),
              res.staleServes);
    EXPECT_EQ(snap.counterValue("device.degraded.offline_pages"),
              res.offlinePages);
    EXPECT_EQ(snap.counterValue("device.missq.queued"),
              res.queuedMisses);
    EXPECT_EQ(snap.counterValue("device.queries"), 30u);
    (void)sawDegraded;

    // Fault ground truth folds into the same registry.
    plan.publishMetrics(registry_);
    const auto snap2 = registry_.snapshot();
    EXPECT_EQ(snap2.counterValue("fault.exchange_failures"),
              plan.stats().exchangeFailures);
}

TEST_F(ObsIntegrationTest, OutageBackoffSpansTile)
{
    fault::FaultConfig fc;
    fc.seed = 11;
    fc.radio.outageShare = 0.5;
    fc.radio.meanOutageDuration = 30 * kSecond;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    u64 sawNoCoverage = 0;
    for (u32 i = 0; i < 20; ++i) {
        serveAndCheckSpans(uncachedPair(600 + i),
                           ServePath::PocketSearch);
        device_.advanceTime(5 * kSecond);
    }
    sawNoCoverage = device_.resilience().noCoverageAttempts;
    EXPECT_GT(sawNoCoverage, 0u) << "outage plan should deny coverage";
    EXPECT_EQ(registry_.counter("device.radio.no_coverage").value(),
              sawNoCoverage);
}

TEST_F(ObsIntegrationTest, PerPathHistogramsMatchOutcomes)
{
    std::vector<double> hit_ms;
    for (u32 r = 0; r < 5; ++r) {
        const auto out =
            device_.serveQuery(cachedPair(r), ServePath::PocketSearch,
                               false);
        ASSERT_TRUE(out.cacheHit);
        hit_ms.push_back(toMillis(out.latency));
    }
    const auto *h = registry_.findHistogram("device.latency_ms.pocket");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 5u);
    double sum = 0;
    for (double x : hit_ms)
        sum += x;
    EXPECT_NEAR(h->sum(), sum, 1e-9);
}

TEST_F(ObsIntegrationTest, SimfsAndCoreCountersFlow)
{
    device_.serveQuery(cachedPair(), ServePath::PocketSearch, false);
    const auto snap = registry_.snapshot();
    EXPECT_GT(snap.counterValue("simfs.reads"), 0u)
        << "a cache hit fetches results from flash";
    EXPECT_GT(snap.counterValue("core.search.lookups"), 0u);
    EXPECT_GT(snap.counterValue("core.search.query_hits"), 0u);
}

TEST_F(ObsIntegrationTest, ChromeTraceExportIsValidJson)
{
    fault::FaultConfig fc;
    fc.seed = 3;
    fc.radio.exchangeFailureRate = 0.5;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);
    for (u32 i = 0; i < 5; ++i)
        device_.serveQuery(uncachedPair(700 + i),
                           ServePath::PocketSearch, false);

    std::ostringstream os;
    tracer_.writeChromeTrace(os);
    const std::string out = os.str();

    // Structural check: balanced scopes outside strings.
    std::string stack;
    bool inString = false, escaped = false;
    for (char c : out) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            stack.push_back(c);
        else if (c == '}') {
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(stack.back(), '{');
            stack.pop_back();
        } else if (c == ']') {
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(stack.back(), '[');
            stack.pop_back();
        }
    }
    EXPECT_TRUE(stack.empty());
    EXPECT_FALSE(inString);
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsIntegrationTest, MetricsAreZeroCostWhenDetached)
{
    // A second device with nothing attached must behave identically:
    // observability is read-only instrumentation.
    MobileDevice bare(uni_);
    bare.installCommunityCache(warmContents());

    const auto a =
        device_.serveQuery(cachedPair(), ServePath::PocketSearch, false);
    const auto b =
        bare.serveQuery(cachedPair(), ServePath::PocketSearch, false);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.cacheHit, b.cacheHit);
}

/** A registry counter name and the value of the count it mirrors. */
using Sources = std::vector<std::pair<std::string, u64>>;

/** Every counter the device mirrors, with its source's current value. */
Sources
mirroredSources(MobileDevice &dev)
{
    const ResilienceStats &rs = dev.resilience();
    const core::ServeStats &ss = dev.pocketSearch().stats();
    Sources out = {
        {"device.radio.attempts", rs.radioAttempts},
        {"device.radio.retries", rs.retries},
        {"device.radio.no_coverage", rs.noCoverageAttempts},
        {"device.radio.failed", rs.failedAttempts},
        {"device.radio.latency_spikes", rs.latencySpikes},
        {"device.degraded.serves", rs.degradedServes},
        {"device.degraded.stale", rs.staleServes},
        {"device.degraded.offline_pages", rs.offlinePages},
        {"device.missq.queued", rs.queuedMisses},
        {"device.missq.synced", rs.syncedMisses},
        {"device.sync.corrupt_delta", rs.corruptDeltas},
        {"device.sync.rejected_delta", rs.rejectedDeltas},
        {"core.search.lookups", ss.lookups},
        {"core.search.query_hits", ss.queryHits},
        {"core.search.pair_hits", ss.pairHits},
        {"core.search.clicks", ss.clicksRecorded},
        {"core.search.pairs_learned", ss.pairsLearned},
        {"core.search.records_learned", ss.recordsLearned},
    };
    for (ServePath p :
         {ServePath::ThreeG, ServePath::Edge, ServePath::Wifi}) {
        const radio::RadioLink &l = dev.link(p);
        const std::string mirror = "device.radio." + l.name();
        const std::string ledger = "health.device.radio." + l.name();
        out.emplace_back(mirror + ".requests", l.requests());
        out.emplace_back(mirror + ".wakeups", l.wakeups());
        out.emplace_back(ledger + ".busy_ns", l.busyNs());
        out.emplace_back(ledger + ".ops", l.requests());
    }
    return out;
}

/** The registry's value of every name in `names`, in order. */
Sources
registryCounts(const obs::MetricRegistry &reg, const Sources &names)
{
    const auto snap = reg.snapshot();
    Sources out;
    for (const auto &[name, v] : names)
        out.emplace_back(name, snap.counterValue(name));
    return out;
}

/**
 * Each mirror reads what it read at `reg_before` plus how far its
 * source moved from `before` to `after`.
 */
void
expectMirrored(const Sources &reg_now, const Sources &reg_before,
               const Sources &before, const Sources &after)
{
    ASSERT_EQ(reg_now.size(), after.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(reg_now[i].second,
                  reg_before[i].second + after[i].second -
                      before[i].second)
            << after[i].first;
    }
}

/** Source growth of one named count between two readings. */
u64
grew(const Sources &before, const Sources &after, const std::string &name)
{
    for (std::size_t i = 0; i < after.size(); ++i)
        if (after[i].first == name)
            return after[i].second - before[i].second;
    ADD_FAILURE() << "no mirrored count " << name;
    return 0;
}

TEST_F(ObsIntegrationTest, EveryMirrorCopiesItsSourceExactly)
{
    MobileDevice dev(uni_);
    const core::CacheContents warm = warmContents();
    dev.installCommunityCache(warm);
    fault::FaultConfig fc;
    fc.seed = 4;
    fc.radio.outageShare = 0.3;
    fc.radio.meanOutageDuration = 10 * kSecond;
    fc.radio.exchangeFailureRate = 0.3;
    fc.radio.latencySpikeRate = 0.3;
    fc.radio.payloadCorruptRate = 0.5;
    fault::FaultPlan plan(fc);
    dev.attachFaults(&plan);

    // The next model drops a few pairs and reranks one. A delta that
    // evicts a pair the device never cached is version skew: it is
    // rejected whole.
    core::CacheContents next = warm;
    next.pairs.erase(next.pairs.begin(), next.pairs.begin() + 3);
    next.pairs.front().score *= 0.5;
    const core::CommunityDelta delta = core::diffContents(warm, next, 2, 3);
    core::CommunityDelta skew;
    skew.fromVersion = 3;
    skew.toVersion = 4;
    skew.evicts.push_back(uncachedPair(999));

    const auto work = [&](u32 first, u32 n) {
        for (u32 i = first; i < first + n; ++i) {
            dev.serveQuery(cachedPair(i % 20), ServePath::PocketSearch);
            dev.serveQuery(uncachedPair(500 + i), ServePath::PocketSearch);
            // A cached query whose clicked result is not: served stale
            // when the radio stays down.
            dev.serveQuery({cachedPair(i % 20).query, 800 + i},
                           ServePath::PocketSearch, false);
            dev.serveQuery(uncachedPair(700 + i), ServePath::Edge, false);
            dev.advanceTime(20 * kSecond);
        }
    };

    // Activity before any attach stays uncounted, Wi-Fi included.
    work(0, 4);
    for (u32 i = 0; i < 4; ++i)
        dev.serveQuery(uncachedPair(900 + i), ServePath::Wifi, false);
    dev.syncCommunityUpdate(core::diffContents(warm, warm, 1, 2));
    ASSERT_GT(dev.link(ServePath::Wifi).requests(), 0u);

    obs::MetricRegistry reg;
    obs::health::HealthAccountant acct(reg);
    dev.attachMetrics(&reg);
    dev.attachHealth(&acct);
    const Sources zero = registryCounts(reg, mirroredSources(dev));
    const Sources atAttach = mirroredSources(dev);

    // Hits, misses and degraded serves; syncs until one has committed,
    // a later one was rejected and some frame failed its CRC; then the
    // miss queue drains.
    work(4, 12);
    bool committed = false;
    bool rejected = false;
    bool corrupt = false;
    for (u32 i = 0; i < 20 && !(committed && rejected && corrupt); ++i) {
        const auto res = dev.syncCommunityUpdate(committed ? skew : delta);
        rejected = rejected || res.rejected;
        committed = committed || res.ok;
        corrupt = corrupt || res.corruptRejected > 0;
        dev.advanceTime(30 * kSecond);
    }
    ASSERT_TRUE(committed);
    ASSERT_TRUE(rejected);
    for (u32 i = 0; i < 20 && !dev.missQueue().empty(); ++i) {
        dev.syncMissQueue(ServePath::ThreeG);
        dev.advanceTime(30 * kSecond);
    }

    const Sources afterWork = mirroredSources(dev);
    expectMirrored(registryCounts(reg, afterWork), zero, atAttach,
                   afterWork);
    for (const char *name :
         {"device.radio.retries", "device.radio.no_coverage",
          "device.radio.failed", "device.radio.latency_spikes",
          "device.degraded.stale", "device.degraded.offline_pages",
          "device.missq.queued", "device.missq.synced",
          "device.sync.corrupt_delta", "device.sync.rejected_delta",
          "core.search.pair_hits", "core.search.pairs_learned",
          "device.radio.3g.wakeups", "device.radio.edge.requests",
          "health.device.radio.3g.busy_ns"})
        EXPECT_GT(grew(atAttach, afterWork, name), 0u) << name;
    EXPECT_EQ(grew(atAttach, afterWork, "device.radio.wifi.requests"), 0u);

    // Energy gauges: the total of a link used since attach, 0 for one
    // that was not.
    const auto gauge = [&](const char *name) {
        const obs::Gauge *g = reg.findGauge(name);
        return g ? g->value() : -1.0;
    };
    EXPECT_DOUBLE_EQ(gauge("device.radio.3g.energy_mj"),
                     dev.link(ServePath::ThreeG).totalEnergy() / 1000.0);
    EXPECT_DOUBLE_EQ(gauge("device.radio.edge.energy_mj"),
                     dev.link(ServePath::Edge).totalEnergy() / 1000.0);
    EXPECT_EQ(gauge("device.radio.wifi.energy_mj"), 0.0);

    // Detached, nothing is counted...
    dev.attachMetrics(nullptr);
    dev.attachHealth(nullptr);
    const Sources frozen = registryCounts(reg, afterWork);
    const double frozenEnergy = gauge("device.radio.3g.energy_mj");
    work(16, 4);
    dev.syncCommunityUpdate(skew);
    dev.syncMissQueue(ServePath::ThreeG);
    EXPECT_EQ(registryCounts(reg, afterWork), frozen);
    EXPECT_EQ(gauge("device.radio.3g.energy_mj"), frozenEnergy);

    // ...and after re-attach only the new growth lands, once.
    dev.attachMetrics(&reg);
    dev.attachHealth(&acct);
    const Sources reattached = mirroredSources(dev);
    work(20, 4);
    dev.syncCommunityUpdate(skew);
    dev.syncMissQueue(ServePath::ThreeG);
    const Sources end = mirroredSources(dev);
    expectMirrored(registryCounts(reg, end), frozen, reattached, end);
    EXPECT_DOUBLE_EQ(gauge("device.radio.3g.energy_mj"),
                     dev.link(ServePath::ThreeG).totalEnergy() / 1000.0);
    dev.attachFaults(nullptr);
}

} // namespace
} // namespace pc::device
