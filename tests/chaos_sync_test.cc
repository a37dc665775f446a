/**
 * @file
 * Sync-robustness tests (fast tier): CRC frame round-trip, the torn-
 * transfer property (every truncation rejected), exhaustive single-bit
 * flip rejection, transactional delta apply (validate-then-commit
 * leaves a mismatched device untouched), corrupt-delta retry plus the
 * bad-streak escalation to a full install, backoff clamping under a
 * jitter above 1, poisoned-log ingest skip-and-count, the typed
 * out-of-window error paths of findModel/tryMakeDelta, and one small
 * end-to-end chaos fleet run whose invariant checker must stay silent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/table_codec.h"
#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/fleet.h"
#include "harness/workbench.h"
#include "server/service.h"

namespace pc::server {
namespace {

using harness::smallWorkbenchConfig;
using harness::Workbench;

/** Non-const: the chaos service factory advances community months. */
Workbench &
sharedWorkbench()
{
    static Workbench wb(smallWorkbenchConfig());
    return wb;
}

workload::SearchLog
slicedLog(const Workbench &wb, std::size_t n)
{
    workload::SearchLog log(wb.universe());
    const auto &records = wb.buildLog().records();
    log.reserve(std::min(n, records.size()));
    for (std::size_t i = 0; i < records.size() && i < n; ++i)
        log.add(records[i]);
    return log;
}

/** Canonical sorted wire view of a device table (order-free compare). */
std::vector<core::WirePair>
canonicalTable(const core::PocketSearch &ps)
{
    const auto decoded = core::decodeTable(core::encodeTable(ps.table()));
    EXPECT_TRUE(decoded.has_value());
    auto pairs = *decoded;
    std::sort(pairs.begin(), pairs.end(),
              [](const core::WirePair &a, const core::WirePair &b) {
                  if (a.queryFnv != b.queryFnv)
                      return a.queryFnv < b.queryFnv;
                  return a.urlHash < b.urlHash;
              });
    return pairs;
}

/**
 * A service whose history window has slid: maxVersions=2, three
 * ingests, so versions {2, 3} remain and version 1 fell off. The
 * chaos scenarios lean on the 2 -> 3 delta carrying evicts (asserted
 * where it matters), which the three distinct log windows guarantee.
 */
CloudUpdateService &
windowedService()
{
    static CloudUpdateService *svc = [] {
        Workbench &wb = sharedWorkbench();
        ServiceConfig cfg;
        cfg.build.shards = 4;
        cfg.build.threads = 2;
        cfg.maxVersions = 2;
        auto *s = new CloudUpdateService(wb.universe(), cfg);
        s->ingest(slicedLog(wb, wb.buildLog().size() / 2));
        s->ingest(wb.buildLog());
        s->ingest(wb.nextCommunityMonth());
        return s;
    }();
    return *svc;
}

TEST(DeltaFrame, RoundTripsAndRejectsEveryTruncation)
{
    CloudUpdateService &svc = windowedService();
    const auto delta = svc.makeDelta(svc.oldestVersion());
    ASSERT_GT(delta.ops(), 0u);

    const std::string frame = core::frameDelta(delta);
    EXPECT_EQ(frame.size(),
              core::encodeDelta(delta).size() + core::kDeltaFrameOverhead);

    core::FrameError err;
    const auto back = core::unframeDelta(frame, &err);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(err, core::FrameError::None);
    EXPECT_EQ(back->fromVersion, delta.fromVersion);
    EXPECT_EQ(back->toVersion, delta.toVersion);
    EXPECT_EQ(back->adds.size(), delta.adds.size());
    EXPECT_EQ(back->evicts.size(), delta.evicts.size());
    EXPECT_EQ(back->reranks.size(), delta.reranks.size());
    for (std::size_t i = 0; i < delta.adds.size(); ++i) {
        EXPECT_EQ(back->adds[i].pair.query, delta.adds[i].pair.query);
        EXPECT_EQ(back->adds[i].pair.result, delta.adds[i].pair.result);
        EXPECT_DOUBLE_EQ(back->adds[i].score, delta.adds[i].score);
    }

    // Torn transfer: a frame cut at ANY byte boundary must be
    // rejected — never decoded into a shorter-but-valid delta.
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        const auto torn = core::unframeDelta(
            std::string_view(frame.data(), cut), &err);
        EXPECT_FALSE(torn.has_value()) << "cut at byte " << cut;
        EXPECT_NE(err, core::FrameError::None) << "cut at byte " << cut;
    }
    // And trailing garbage is not a valid frame either.
    EXPECT_FALSE(core::unframeDelta(frame + '\0', &err).has_value());
    EXPECT_EQ(err, core::FrameError::LengthMismatch);
}

TEST(DeltaFrame, RejectsEverySingleBitFlip)
{
    CloudUpdateService &svc = windowedService();
    // The incremental delta: small enough to flip every bit.
    const auto delta =
        svc.makeDelta(svc.oldestVersion(), svc.latestVersion());
    const std::string frame = core::frameDelta(delta);
    core::FrameError err;
    ASSERT_TRUE(core::unframeDelta(frame, &err).has_value());

    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
        std::string flipped = frame;
        flipped[bit / 8] = char(u8(flipped[bit / 8]) ^ (1u << (bit % 8)));
        EXPECT_FALSE(core::unframeDelta(flipped, &err).has_value())
            << "flip of bit " << bit << " slipped past the CRC";
        EXPECT_NE(err, core::FrameError::None) << "flip of bit " << bit;
    }
}

TEST(DeltaApply, RejectionIsTransactional)
{
    Workbench &wb = sharedWorkbench();
    CloudUpdateService &svc = windowedService();

    // An honest install of the latest model...
    device::MobileDevice dev(wb.universe());
    ASSERT_TRUE(svc.syncDevice(dev).ok);
    const auto before = canonicalTable(dev.pocketSearch());
    ASSERT_FALSE(before.empty());

    // ...then a delta whose evict/rerank targets are absent. Validation
    // must refuse before the first mutation: same table, typed error.
    // The target is in range (id-wise valid) but never installed.
    workload::PairRef missing{0, 0};
    bool found = false;
    for (u32 q = 0; q < wb.universe().numQueries() && !found; ++q)
        for (u32 rr = 0; rr < wb.universe().numResults() && !found; ++rr)
            if (!dev.pocketSearch().findPair({q, rr})) {
                missing = {q, rr};
                found = true;
            }
    ASSERT_TRUE(found);
    core::CommunityDelta bad;
    bad.fromVersion = svc.latestVersion();
    bad.toVersion = svc.latestVersion() + 1;
    bad.adds.push_back({{0, 0}, 0.5, 1});
    bad.evicts.push_back(missing);
    SimTime t = 0;
    const auto res = core::tryApplyCommunityDelta(dev.pocketSearch(),
                                                  bad, t);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, core::DeltaApplyError::MissingEvictTarget);
    EXPECT_EQ(canonicalTable(dev.pocketSearch()), before)
        << "a rejected delta must not leave a partial apply behind";

    // Out-of-range pair ids are caught the same way.
    core::CommunityDelta oob;
    oob.fromVersion = svc.latestVersion();
    oob.toVersion = svc.latestVersion() + 1;
    oob.adds.push_back(
        {{wb.universe().numQueries() + 7, 0}, 0.5, 1});
    const auto res2 = core::tryApplyCommunityDelta(dev.pocketSearch(),
                                                   oob, t);
    EXPECT_FALSE(res2.ok);
    EXPECT_EQ(res2.error, core::DeltaApplyError::BadPairId);
    EXPECT_EQ(canonicalTable(dev.pocketSearch()), before);
}

TEST(DeltaApply, VersionSkewRejectsThenEscalatesToFullInstall)
{
    Workbench &wb = sharedWorkbench();
    CloudUpdateService &svc = windowedService();
    ASSERT_FALSE(
        svc.makeDelta(svc.oldestVersion(), svc.latestVersion())
            .evicts.empty())
        << "scenario needs an incremental delta with evicts";

    // The device lies: claims the oldest in-window version over an
    // empty table. Each incremental sync is verified (CRC ok) but
    // fails validation — counted, version untouched, streak grows.
    device::MobileDevice dev(wb.universe());
    dev.setCommunityVersion(svc.oldestVersion());
    for (u32 i = 1; i <= device::MobileDevice::kBadDeltaEscalation; ++i) {
        const auto res = svc.syncDevice(dev);
        EXPECT_FALSE(res.ok);
        EXPECT_TRUE(res.rejected);
        EXPECT_NE(res.applyError, core::DeltaApplyError::None);
        EXPECT_EQ(dev.communityVersion(), svc.oldestVersion());
        EXPECT_EQ(dev.resilience().rejectedDeltas, u64(i));
        EXPECT_EQ(dev.badDeltaStreak(), i);
        EXPECT_EQ(dev.needsFullInstall(),
                  i == device::MobileDevice::kBadDeltaEscalation);
    }

    // Strike three: the service stops diffing and ships the whole
    // model. The device converges and the streak resets.
    const u64 escalatedBefore = svc.metrics().snapshot().counterValue(
        "server.deltas.escalated_full_installs");
    const u64 fullBefore = svc.metrics().snapshot().counterValue(
        "server.deltas.full_installs");
    const auto res = svc.syncDevice(dev);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(svc.metrics().snapshot().counterValue(
                  "server.deltas.full_installs"),
              fullBefore + 1)
        << "escalation must be a full install";
    EXPECT_EQ(dev.communityVersion(), svc.latestVersion());
    EXPECT_EQ(dev.badDeltaStreak(), 0u);
    EXPECT_EQ(svc.metrics().snapshot().counterValue(
                  "server.deltas.escalated_full_installs"),
              escalatedBefore + 1);

    device::MobileDevice honest(wb.universe());
    ASSERT_TRUE(svc.syncDevice(honest).ok);
    EXPECT_EQ(canonicalTable(dev.pocketSearch()),
              canonicalTable(honest.pocketSearch()))
        << "the escalated install must land on the honest table";
}

TEST(DeltaApply, CorruptFramesAreRejectedCountedAndEscalate)
{
    Workbench &wb = sharedWorkbench();
    CloudUpdateService &svc = windowedService();

    device::MobileDevice dev(wb.universe());
    fault::FaultConfig fc;
    fc.radio.payloadCorruptRate = 1.0; // every delivery flips a bit
    fc.seed = 11;
    fault::FaultPlan faults(fc);
    dev.attachFaults(&faults);

    const u64 retriesBefore = svc.metrics().snapshot().counterValue(
        "server.sync.corrupt_retries");
    for (u32 i = 1; i <= device::MobileDevice::kBadDeltaEscalation; ++i) {
        const auto res = svc.syncDevice(dev);
        EXPECT_FALSE(res.ok);
        EXPECT_FALSE(res.rejected);
        EXPECT_EQ(res.corruptRejected, dev.config().retry.maxAttempts)
            << "every delivered frame must fail the CRC check";
        EXPECT_EQ(dev.badDeltaStreak(), i);
        EXPECT_EQ(dev.communityVersion(), 0u);
        EXPECT_EQ(dev.pocketSearch().pairs(), 0u);
    }
    EXPECT_EQ(dev.resilience().corruptDeltas,
              u64(device::MobileDevice::kBadDeltaEscalation) *
                  dev.config().retry.maxAttempts);
    EXPECT_EQ(dev.resilience().corruptDeltas,
              faults.stats().payloadCorruptions)
        << "every injected corruption must be caught";
    EXPECT_EQ(svc.metrics().snapshot().counterValue(
                  "server.sync.corrupt_retries"),
              retriesBefore + dev.resilience().corruptDeltas);
    // A never-synced device escalates trivially: from-version is
    // already 0, so the next clean sync is a plain full install.
    EXPECT_TRUE(dev.needsFullInstall());

    dev.attachFaults(nullptr);
    const auto res = svc.syncDevice(dev);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(dev.communityVersion(), svc.latestVersion());
    EXPECT_EQ(dev.badDeltaStreak(), 0u);
}

TEST(RetryBackoff, TimeNeverRunsBackwardsUnderWideJitter)
{
    // A jitter above 1 can draw a negative backoff multiplier; the
    // shared retry loop waits zero instead of rewinding the clock.
    Workbench &wb = sharedWorkbench();
    const auto delta = windowedService().makeDelta(0);
    device::DeviceConfig dc;
    dc.retry.jitter = 1.5;
    for (u64 seed = 1; seed <= 20; ++seed) {
        device::MobileDevice dev(wb.universe(), dc);
        fault::FaultConfig fc;
        fc.seed = seed;
        fc.radio.payloadCorruptRate = 1.0; // every frame retries
        fault::FaultPlan faults(fc);
        dev.attachFaults(&faults);
        obs::FlightRecorder rec(seed);
        dev.attachFlightRecorder(&rec);

        const auto res = dev.syncCommunityUpdate(delta);
        EXPECT_FALSE(res.ok) << "seed " << seed;
        EXPECT_GE(res.backoffTime, 0) << "seed " << seed;
        SimTime lastDelivery = 0;
        for (const auto &ev : rec.events()) {
            if (ev.stage == obs::SyncStage::Backoff) {
                EXPECT_GE(ev.duration, 0) << "seed " << seed;
            }
            if (ev.stage == obs::SyncStage::FrameDelivery) {
                EXPECT_GE(ev.start, lastDelivery) << "seed " << seed;
                lastDelivery = ev.start;
            }
        }
        EXPECT_EQ(dev.now(), res.time + res.backoffTime)
            << "seed " << seed;
    }
}

TEST(Ingest, PoisonedRecordsAreSkippedAndCounted)
{
    Workbench &wb = sharedWorkbench();
    auto clean = slicedLog(wb, wb.buildLog().size() / 2);

    auto poisoned = slicedLog(wb, wb.buildLog().size() / 2);
    workload::LogRecord bad;
    bad.pair = {wb.universe().numQueries() + 3, 0};
    poisoned.add(bad);
    bad.pair = {0, wb.universe().numResults() + 9};
    poisoned.add(bad);

    ServiceConfig cfg;
    cfg.build.shards = 4;
    cfg.build.threads = 2;
    CloudUpdateService svcClean(wb.universe(), cfg);
    CloudUpdateService svcPoisoned(wb.universe(), cfg);
    const auto &mClean = svcClean.ingest(clean);
    const auto &mPoisoned = svcPoisoned.ingest(poisoned);

    EXPECT_EQ(mClean.stats.skippedRecords, 0u);
    EXPECT_EQ(mPoisoned.stats.skippedRecords, 2u);
    EXPECT_EQ(svcPoisoned.metrics().snapshot().counterValue(
                  "server.ingest.skipped_records"),
              2u);
    EXPECT_EQ(
        harness::contentsDigest(mPoisoned.contents, wb.universe()),
        harness::contentsDigest(mClean.contents, wb.universe()))
        << "poisoned records must not change the surviving model";
}

TEST(VersionWindow, TypedErrorsOffTheHistoryWindow)
{
    Workbench &wb = sharedWorkbench();
    CloudUpdateService &svc = windowedService();

    // Version 1 fell off the maxVersions=2 window.
    EXPECT_EQ(svc.oldestVersion(), 2u);
    EXPECT_EQ(svc.latestVersion(), 3u);
    EXPECT_FALSE(svc.hasVersion(1));
    EXPECT_EQ(svc.findModel(1), nullptr);
    EXPECT_NE(svc.findModel(2), nullptr);

    // Unknown *target* version: typed nullopt, not a crash.
    EXPECT_FALSE(svc.tryMakeDelta(2, 1).has_value());
    EXPECT_FALSE(svc.tryMakeDelta(0, 99).has_value());
    // Off-window *from* version: silent upgrade to a full install.
    const auto full = svc.tryMakeDelta(1, 3);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->fromVersion, 0u);
    EXPECT_TRUE(full->evicts.empty());
    EXPECT_TRUE(full->reranks.empty());

    // A service with nothing published: the sync degrades into a
    // typed no-version outcome, no radio traffic, device untouched.
    ServiceConfig cfg;
    CloudUpdateService empty(wb.universe(), cfg);
    device::MobileDevice dev(wb.universe());
    CloudUpdateService::SyncAccounting acct;
    const auto res = empty.syncDetached(dev, &acct);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.attempts, 0u);
    EXPECT_TRUE(acct.noVersion);
    EXPECT_EQ(dev.communityVersion(), 0u);
    empty.accountSync(acct);
    EXPECT_EQ(empty.metrics().snapshot().counterValue(
                  "server.sync.no_version"),
              1u);
}

TEST(ChaosFleet, SmallRunHoldsEveryInvariant)
{
    Workbench &wb = sharedWorkbench();
    ServiceConfig scfg;
    scfg.build.shards = 4;
    scfg.build.threads = 2;
    scfg.maxVersions = 2;
    CloudUpdateService svc(wb.universe(), scfg);
    svc.ingest(slicedLog(wb, wb.buildLog().size() / 2));
    svc.ingest(wb.buildLog());
    svc.ingest(wb.nextCommunityMonth());
    ASSERT_FALSE(
        svc.makeDelta(svc.oldestVersion(), svc.latestVersion())
            .evicts.empty());

    harness::FleetRunConfig cfg;
    cfg.devices = 10;
    cfg.months = 6;
    cfg.cloud = &svc;
    cfg.chaos.enabled = true;
    cfg.chaos.stormStartMonth = 1;
    cfg.chaos.stormMonths = 1;
    cfg.chaos.payloadCorruptRate = 0.3;
    cfg.chaos.skewEvery = 4;

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);
    const auto r = harness::runFleet(wb, cfg, collector);

    EXPECT_EQ(r.invariantViolations, 0u)
        << "the sync path let chaos corrupt a device";
    EXPECT_GT(r.devicesVerified, 0u)
        << "some devices must sync and be digest-checked";
    EXPECT_GT(r.corruptRejected, 0u)
        << "a 30% flip rate must inject something";
    EXPECT_GT(r.rejectedDeltas, 0u)
        << "the skew cohort must trip validation";
    EXPECT_GT(r.escalatedFullInstalls, 0u)
        << "the skew cohort must eventually escalate";
    const auto snap = collector.fleetRegistry().snapshot();
    EXPECT_EQ(snap.counterValue("device.sync.corrupt_delta"),
              r.corruptRejected);
    EXPECT_EQ(snap.counterValue("device.sync.rejected_delta"),
              r.rejectedDeltas);
    EXPECT_EQ(snap.counterValue("server.sync.corrupt_retries"),
              r.corruptRejected);
}

} // namespace
} // namespace pc::server
