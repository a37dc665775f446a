/**
 * @file
 * First contact by copy (fast tier): a device that adopts the shared
 * InstallImage must end byte for byte where the real full-install
 * apply leaves its twin — table encoding, flash and store state,
 * registry sample, flight-recorder chain, sync result (apply time and
 * DeltaApplyStats included) — on the perfbench fleet_sync device
 * config. The negative cases must take the install path: a device
 * whose flash served reads before its first sync, a table or store
 * off the image's state on untouched flash, an escalated full install
 * onto a non-empty table (which must still reconcile), a full install
 * to a version other than the image's, and an armed crash.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "core/table_codec.h"
#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/fleet.h"
#include "harness/workbench.h"
#include "obs/causal.h"
#include "server/service.h"
#include "util/hash.h"

namespace pc::device {
namespace {

using harness::Workbench;
using server::CloudUpdateService;

/** The fleet_sync world: small workbench, three published versions. */
struct World
{
    World() : wb(harness::smallWorkbenchConfig())
    {
        server::ServiceConfig sc;
        sc.build.shards = 8;
        sc.build.threads = 2;
        svc = std::make_unique<CloudUpdateService>(wb.universe(), sc);
        for (int v = 0; v < 3; ++v)
            svc->ingest(wb.nextCommunityMonth());
    }

    Workbench wb;
    std::unique_ptr<CloudUpdateService> svc;
};

World &
world()
{
    static World w;
    return w;
}

/** runFleet's image under chaos: a fresh CommunityOnly device. */
const MobileDevice &
emptyImage()
{
    static const MobileDevice image = [] {
        core::PocketSearchConfig ps;
        ps.mode = core::CacheMode::CommunityOnly;
        return MobileDevice(world().wb.universe(), DeviceConfig{}, ps);
    }();
    return image;
}

/** The image runFleet builds: the full install of the latest model. */
const InstallImage &
firstContact()
{
    static const InstallImage image(emptyImage(),
                                    world().svc->makeDelta(0));
    return image;
}

/** A device cloned from the image and observed like a chaos device. */
struct Observed
{
    explicit Observed(bool with_image)
        : dev(emptyImage()), recorder(7), faults([] {
              fault::FaultConfig f;
              f.seed = 99;
              f.radio.payloadCorruptRate = 0.05;
              return f;
          }())
    {
        dev.attachMetrics(&registry);
        dev.attachFlightRecorder(&recorder);
        dev.attachFaults(&faults);
        if (with_image)
            dev.attachInstallImage(&firstContact());
    }

    /** One fleet-style detached sync to the latest version. */
    MobileDevice::CommunitySyncResult
    sync(u64 target = 0)
    {
        CloudUpdateService::SyncAccounting acct;
        return world().svc->syncDetached(dev, &acct, target);
    }

    MobileDevice dev;
    obs::MetricRegistry registry;
    obs::FlightRecorder recorder;
    fault::FaultPlan faults;
};

/** Everything observable about a device, compared byte for byte. */
void
expectSameDevice(Observed &a, Observed &b)
{
    EXPECT_EQ(core::encodeTable(a.dev.pocketSearch().table()),
              core::encodeTable(b.dev.pocketSearch().table()));
    EXPECT_TRUE(a.dev.pocketSearch().sameCache(b.dev.pocketSearch()));
    EXPECT_TRUE(a.dev.flash() == b.dev.flash());
    EXPECT_TRUE(a.dev.store().sameState(b.dev.store()));
    EXPECT_EQ(a.dev.store().stats().logicalBytes,
              b.dev.store().stats().logicalBytes);
    const obs::MetricsSample sa = a.registry.sample();
    const obs::MetricsSample sb = b.registry.sample();
    EXPECT_TRUE(*sa.layout == *sb.layout);
    EXPECT_EQ(sa.counters, sb.counters);
    EXPECT_EQ(sa.histogramSums, sb.histogramSums);
    EXPECT_EQ(a.recorder.events(), b.recorder.events());
    EXPECT_EQ(a.dev.now(), b.dev.now());
    EXPECT_EQ(a.dev.communityVersion(), b.dev.communityVersion());
    EXPECT_EQ(a.dev.resilience(), b.dev.resilience());
    EXPECT_EQ(a.faults.rngDraws(), b.faults.rngDraws());
}

TEST(InstallImageTest, AdoptMatchesInstallByteForByte)
{
    Observed adopt(true);
    Observed install(false);
    const auto ra = adopt.sync();
    const auto ri = install.sync();
    ASSERT_TRUE(ri.ok);
    EXPECT_EQ(ri.fromVersion, 0u);
    EXPECT_GT(ri.apply.added, 0u);
    EXPECT_GT(ri.apply.recordsPatched, 0u);
    EXPECT_EQ(ra, ri) << "sync result, apply time and stats";
    EXPECT_EQ(adopt.dev.installsAdopted(), 1u);
    EXPECT_EQ(install.dev.installsAdopted(), 0u);
    expectSameDevice(adopt, install);
    EXPECT_GT(adopt.registry.counter("simfs.bytes_written").value(), 0u);

    // Both keep going identically: a later sync and served queries see
    // the same cache, so nothing diverges after the copy either.
    const auto &pairs = world().svc->latest().contents.pairs;
    for (std::size_t i = 0; i < pairs.size(); i += pairs.size() / 16 + 1) {
        const auto qa = adopt.dev.serveQuery(pairs[i].pair,
                                             ServePath::PocketSearch);
        const auto qi = install.dev.serveQuery(pairs[i].pair,
                                               ServePath::PocketSearch);
        EXPECT_EQ(qa, qi) << "query " << i;
        EXPECT_TRUE(qa.cacheHit);
    }
    EXPECT_EQ(adopt.sync(), install.sync());
    expectSameDevice(adopt, install);
}

TEST(InstallImageTest, FleetSyncFirstContactsAdopt)
{
    // A skewed claim is no obstacle: the escalation of an empty table
    // carries the same payload onto the same state.
    Observed adopt(true);
    Observed install(false);
    adopt.dev.setCommunityVersion(1);
    install.dev.setCommunityVersion(1);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(adopt.sync(), install.sync()) << "sync " << i;
    EXPECT_EQ(adopt.dev.communityVersion(), world().svc->latestVersion());
    EXPECT_EQ(adopt.dev.installsAdopted(), 1u);
    expectSameDevice(adopt, install);
}

/** Run `prepare` on a device with and one without the image, sync
 *  both, and require the install path and identical results. */
void
expectInstallPath(const std::function<void(Observed &)> &prepare,
                  u64 target = 0)
{
    Observed adopt(true);
    Observed install(false);
    prepare(adopt);
    prepare(install);
    const auto ra = adopt.sync(target);
    const auto ri = install.sync(target);
    EXPECT_TRUE(ri.ok);
    EXPECT_EQ(ra, ri);
    EXPECT_EQ(adopt.dev.installsAdopted(), 0u);
    expectSameDevice(adopt, install);
}

TEST(InstallImageTest, FlashReadsBeforeFirstSyncTakeInstallPath)
{
    // The cache is empty but its flash has served reads: the copy
    // would overwrite the device's read counts with the image's.
    expectInstallPath([](Observed &o) {
        o.dev.flash().read(0, 3 * 4096);
        EXPECT_TRUE(o.dev.pocketSearch().sameCache(
            emptyImage().pocketSearch()));
    });
}

TEST(InstallImageTest, CacheOrStoreStateOffTheImageTakesInstallPath)
{
    // Untouched flash, but a table entry restored from a snapshot (its
    // record already on flash) or one more file in the store: the copy
    // would drop either.
    expectInstallPath([](Observed &o) {
        const auto &u = world().wb.universe();
        const auto pair = world().svc->latest().contents.pairs.front().pair;
        o.dev.pocketSearch().restorePairs(
            {core::SnapshotPair{u.query(pair.query).text,
                                urlHash(u.result(pair.result).url), 5.0,
                                true}});
    });
    expectInstallPath(
        [](Observed &o) { o.dev.store().create("notes.txt"); });
}

TEST(InstallImageTest, EscalatedFullInstallOntoNonEmptyTableReconciles)
{
    Observed adopt(true);
    Observed install(false);
    for (Observed *o : {&adopt, &install}) {
        ASSERT_TRUE(o->sync(1).ok);
        // Three syncs defeated by corruption escalate the next one.
        fault::FaultConfig flips;
        flips.seed = 5;
        flips.radio.payloadCorruptRate = 1.0;
        fault::FaultPlan always(flips);
        o->dev.attachFaults(&always);
        for (int i = 0; i < 3; ++i)
            EXPECT_FALSE(o->sync().ok);
        o->dev.attachFaults(&o->faults);
        ASSERT_TRUE(o->dev.needsFullInstall());
    }
    const auto ra = adopt.sync();
    const auto ri = install.sync();
    ASSERT_TRUE(ri.ok);
    EXPECT_EQ(ra, ri);
    EXPECT_GT(ri.apply.staleEvicted, 0u) << "a reconcile, not a copy";
    EXPECT_GT(ri.apply.conflicts, 0u);
    EXPECT_EQ(adopt.dev.installsAdopted(), 0u);
    EXPECT_EQ(adopt.dev.pocketSearch().pairs(),
              world().svc->latest().contents.pairs.size());
    // No pair was ever accessed (CommunityOnly learns nothing), so the
    // reconcile converges to exactly the target model: conflicting v1
    // pairs take v3's score whether it is lower or higher.
    const auto &v3 = world().svc->latest();
    EXPECT_EQ(harness::deviceTableDigest(install.dev.pocketSearch()),
              harness::contentsDigest(v3.contents, world().wb.universe()));
    expectSameDevice(adopt, install);
}

TEST(InstallImageTest, FullInstallToAnotherVersionTakesInstallPath)
{
    expectInstallPath([](Observed &) {}, 2);
}

TEST(InstallImageTest, ArmedCrashTakesInstallPath)
{
    // A crash armed past the install's writes leaves them whole, but
    // the copy would not consume its budget.
    Observed adopt(true);
    Observed install(false);
    for (Observed *o : {&adopt, &install})
        o->faults.armCrashAfterBytes(64 * kMiB);
    EXPECT_EQ(adopt.sync(), install.sync());
    EXPECT_EQ(adopt.dev.installsAdopted(), 0u);
    expectSameDevice(adopt, install);
}

} // namespace
} // namespace pc::device
