/**
 * @file
 * Delta-sync tests: diffContents list construction (and its full-install
 * fast path), the wire-size formula, the core equality "apply delta to a
 * clean device == fresh install of the target version", the batched add
 * path against a one-item-at-a-time reference, personalization retention
 * across syncs, the full-install fallback, sync failure under a dead
 * radio, a fleet run wired through the cloud service whose snapshot
 * must carry "server.*" metrics next to the device ones, and the
 * service's delta cache: every sync base serves what a fresh
 * tryMakeDelta would, ingest() drops entries for evicted bases, and
 * concurrent syncs match a serial run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/delta.h"
#include "core/table_codec.h"
#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/fleet.h"
#include "harness/workbench.h"
#include "server/service.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pc::server {
namespace {

using harness::smallWorkbenchConfig;
using harness::Workbench;

const Workbench &
sharedWorkbench()
{
    static const Workbench wb(smallWorkbenchConfig());
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

/**
 * Canonical view of a device table: decoded wire pairs, sorted. Two
 * tables hold the same pairs/scores/flags iff these compare equal
 * (encodeTable itself iterates an unordered_map, so raw blobs of
 * equal tables may differ).
 */
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

/** A service with versions 1 (partial month) and 2 (full month). */
CloudUpdateService &
sharedService()
{
    static CloudUpdateService *svc = [] {
        const Workbench &wb = sharedWorkbench();
        ServiceConfig cfg;
        cfg.build.shards = 4;
        cfg.build.threads = 2;
        auto *s = new CloudUpdateService(wb.universe(), cfg);
        s->ingest(slicedLog(wb, wb.buildLog().size() / 2));
        s->ingest(wb.buildLog());
        return s;
    }();
    return *svc;
}

TEST(DiffContents, BuildsAddEvictRerankLists)
{
    core::CacheContents from;
    from.pairs = {{{1, 10}, 0.9, 90}, // survives unchanged
                  {{2, 20}, 0.8, 80}, // re-ranked
                  {{3, 30}, 0.7, 70}}; // evicted
    core::CacheContents to;
    to.pairs = {{{1, 10}, 0.9, 90},
                {{2, 20}, 0.5, 50},
                {{4, 40}, 0.6, 60}}; // added

    const auto d = core::diffContents(from, to, 1, 2);
    EXPECT_EQ(d.fromVersion, 1u);
    EXPECT_EQ(d.toVersion, 2u);
    ASSERT_EQ(d.adds.size(), 1u);
    EXPECT_EQ(d.adds[0].pair.query, 4u);
    EXPECT_DOUBLE_EQ(d.adds[0].score, 0.6);
    ASSERT_EQ(d.evicts.size(), 1u);
    EXPECT_EQ(d.evicts[0].query, 3u);
    ASSERT_EQ(d.reranks.size(), 1u);
    EXPECT_EQ(d.reranks[0].pair.query, 2u);
    EXPECT_DOUBLE_EQ(d.reranks[0].score, 0.5);
    EXPECT_EQ(d.ops(), 3u);
    EXPECT_FALSE(d.empty());

    const auto same = core::diffContents(to, to, 2, 2);
    EXPECT_TRUE(same.empty());
    EXPECT_GT(core::deltaWireBytes(d, sharedWorkbench().universe()),
              core::deltaWireBytes(same, sharedWorkbench().universe()));
}

TEST(DiffContents, FullInstallFastPathMatchesGeneralDiff)
{
    const core::CacheContents &to = sharedService().model(2).contents;
    ASSERT_GT(to.pairs.size(), 100u);
    const auto fast = core::diffContents(core::CacheContents{}, to, 0, 2);

    // The general path, forced by a `from` that shares no pair with
    // `to` (universe ids stop short of UINT32_MAX), minus that pair's
    // evict.
    core::CacheContents foreign;
    foreign.pairs = {{{~0u, ~0u}, 0.5, 5}};
    auto general = core::diffContents(foreign, to, 0, 2);
    ASSERT_EQ(general.evicts.size(), 1u);
    general.evicts.clear();

    EXPECT_EQ(fast.fromVersion, general.fromVersion);
    EXPECT_EQ(fast.toVersion, general.toVersion);
    ASSERT_EQ(fast.adds.size(), general.adds.size());
    for (std::size_t i = 0; i < fast.adds.size(); ++i) {
        EXPECT_EQ(fast.adds[i].pair, general.adds[i].pair);
        EXPECT_EQ(fast.adds[i].score, general.adds[i].score);
        EXPECT_EQ(fast.adds[i].volume, general.adds[i].volume);
    }
    EXPECT_TRUE(fast.evicts.empty());
    EXPECT_TRUE(fast.reranks.empty());
    EXPECT_EQ(core::encodeDelta(fast), core::encodeDelta(general));
}

/** deltaWireBytes as first written: re-encode, dedup through a set. */
Bytes
referenceWireBytes(const core::CommunityDelta &d,
                   const workload::QueryUniverse &u)
{
    Bytes bytes = Bytes(core::encodeDelta(d).size()) +
                  core::kDeltaFrameOverhead;
    std::unordered_set<u32> shipped;
    for (const auto &sp : d.adds) {
        if (sp.pair.result < u.numResults() &&
            shipped.insert(sp.pair.result).second)
            bytes += workload::QueryUniverse::recordSize(
                u.result(sp.pair.result));
    }
    return bytes;
}

TEST(DeltaWireBytes, ClosedFormMatchesReencoding)
{
    const auto &u = sharedWorkbench().universe();
    Rng rng(0x51ce);
    // Result ids from the universe's last 64 plus 8 past its end: the
    // narrow range repeats results, and ids past the end carry no
    // record.
    ASSERT_GT(u.numResults(), 64u);
    const u32 first = u.numResults() - 64;
    const auto randomPair = [&] {
        return workload::PairRef{u32(rng.below(u.numQueries())),
                                 first + u32(rng.below(64 + 8))};
    };
    for (int trial = 0; trial < 200; ++trial) {
        core::CommunityDelta d;
        d.fromVersion = rng.below(3);
        d.toVersion = d.fromVersion + 1;
        const auto n = [&] { return std::size_t(rng.below(40)); };
        for (std::size_t i = n(); i > 0; --i)
            d.adds.push_back({randomPair(), rng.uniform(), rng.below(99)});
        for (std::size_t i = n(); i > 0; --i)
            d.evicts.push_back(randomPair());
        for (std::size_t i = n(); i > 0; --i)
            d.reranks.push_back({randomPair(), rng.uniform(), 1});
        EXPECT_EQ(core::deltaWireBytes(d, u), referenceWireBytes(d, u))
            << "trial " << trial;
    }
    const auto full = sharedService().makeDelta(0, 2);
    EXPECT_EQ(core::deltaWireBytes(full, u), referenceWireBytes(full, u));
}

/** A bare device cache on its own flash, for byte comparisons. */
struct Cache
{
    explicit Cache(const workload::QueryUniverse &u)
    {
        nvm::FlashConfig fc;
        fc.capacity = 64 * kMiB;
        device = std::make_unique<nvm::FlashDevice>(fc);
        store = std::make_unique<simfs::FlashStore>(*device);
        ps = std::make_unique<core::PocketSearch>(u, *store);
    }

    /** Every database file's bytes, in fileNames() order. */
    std::vector<std::string>
    dbFiles() const
    {
        std::vector<std::string> out;
        SimTime sink = 0;
        for (const auto &name : ps->db().fileNames()) {
            const auto id = store->lookup(name);
            std::string bytes;
            store->read(id, 0, store->size(id), bytes, sink);
            out.push_back(std::move(bytes));
        }
        return out;
    }

    std::unique_ptr<nvm::FlashDevice> device;
    std::unique_ptr<simfs::FlashStore> store;
    std::unique_ptr<core::PocketSearch> ps;
};

/**
 * The delta apply as one operation per item: findPair, installPair,
 * setPairScore and evictPair in delta order, with the full-install
 * reconcile's reverse map over every universe pair.
 */
core::DeltaApplyStats
applyOneByOne(core::PocketSearch &ps, const core::CommunityDelta &d,
              SimTime &time)
{
    core::DeltaApplyStats st;
    const auto &u = ps.universe();
    const auto key = [&](const workload::PairRef &p) {
        return hashCombine(fnv1a(u.query(p.query).text),
                           urlHash(u.result(p.result).url));
    };
    if (d.fromVersion == 0 && ps.pairs() > 0) {
        std::unordered_set<u64> wanted;
        for (const auto &sp : d.adds)
            wanted.insert(key(sp.pair));
        std::unordered_map<u64, workload::PairRef> reverse;
        for (u32 q = 0; q < u.numQueries(); ++q) {
            for (const auto &[r, w] : u.query(q).results) {
                (void)w;
                reverse.emplace(key({q, r}), workload::PairRef{q, r});
            }
        }
        std::vector<std::pair<workload::PairRef, bool>> stale;
        ps.table().forEachPair([&](u64 qfnv, const core::ResultRef &r) {
            const u64 k = hashCombine(qfnv, r.urlHash);
            if (!wanted.count(k))
                stale.emplace_back(reverse.at(k), r.userAccessed);
        });
        for (const auto &[pair, accessed] : stale) {
            if (accessed) {
                ++st.keptAccessed;
                continue;
            }
            ps.evictPair(pair);
            ++st.staleEvicted;
        }
    }
    for (const auto &sp : d.adds) {
        if (const auto cached = ps.findPair(sp.pair)) {
            ++st.conflicts;
            // A full install sets a pair the user never accessed to the
            // target's score; otherwise the higher score wins.
            const bool converge = d.fromVersion == 0 && !cached->userAccessed;
            if (converge ? sp.score != cached->score
                         : sp.score > cached->score)
                ps.setPairScore(sp.pair, sp.score);
            continue;
        }
        ++st.added;
        if (ps.installPair(sp.pair, sp.score, false, time))
            ++st.recordsPatched;
    }
    for (const auto &p : d.evicts) {
        const auto cached = ps.findPair(p);
        if (cached && cached->userAccessed) {
            ++st.keptAccessed;
            continue;
        }
        if (ps.evictPair(p))
            ++st.evicted;
    }
    for (const auto &sp : d.reranks) {
        const auto cached = ps.findPair(sp.pair);
        if (!cached)
            continue;
        ps.setPairScore(sp.pair, cached->userAccessed
                                     ? std::max(cached->score, sp.score)
                                     : sp.score);
        ++st.reranked;
    }
    return st;
}

/**
 * Apply `d` to `a` through tryApplyCommunityDelta and to `b` one item
 * at a time; the two caches (equal beforehand) must end byte-equal.
 */
core::DeltaApplyStats
expectBatchMatchesOneByOne(Cache &a, Cache &b, const core::CommunityDelta &d)
{
    SimTime time_a = 0;
    const auto res = core::tryApplyCommunityDelta(*a.ps, d, time_a);
    EXPECT_TRUE(res.ok) << int(res.error);
    SimTime time_b = 0;
    const auto ref = applyOneByOne(*b.ps, d, time_b);

    const auto &sa = res.stats;
    EXPECT_EQ(sa.added, ref.added);
    EXPECT_EQ(sa.evicted, ref.evicted);
    EXPECT_EQ(sa.reranked, ref.reranked);
    EXPECT_EQ(sa.keptAccessed, ref.keptAccessed);
    EXPECT_EQ(sa.conflicts, ref.conflicts);
    EXPECT_EQ(sa.staleEvicted, ref.staleEvicted);
    EXPECT_EQ(sa.recordsPatched, ref.recordsPatched);
    EXPECT_EQ(time_a, time_b);

    // Raw blobs: the table's insertion order is part of the contract.
    EXPECT_TRUE(core::encodeTable(a.ps->table()) ==
                core::encodeTable(b.ps->table()));
    const auto box_a = a.ps->suggestIndex().suggest("", ~0u);
    const auto box_b = b.ps->suggestIndex().suggest("", ~0u);
    EXPECT_EQ(box_a.size(), box_b.size());
    for (std::size_t i = 0; i < std::min(box_a.size(), box_b.size());
         ++i) {
        EXPECT_EQ(box_a[i].query, box_b[i].query) << i;
        EXPECT_EQ(box_a[i].score, box_b[i].score) << box_a[i].query;
    }
    EXPECT_TRUE(a.dbFiles() == b.dbFiles());
    return sa;
}

/**
 * The staging trap: a batched add's suggest entry must merge before an
 * evict or re-rank resyncs the same query. Universe queries carry at
 * most two results, so each trap query Q holds its best v1 pair P on
 * the device and has one more result N that it lacks. The delta adds N
 * and re-adds P below its cached score (a conflict). On Q1 it also
 * evicts P and re-ranks it down (the evict wins; the re-rank then finds
 * nothing); on Q2 it re-ranks P down. Either way Q's best table score
 * ends below the conflict's staged score, so a flush after the resync
 * would leave the box too high.
 */
TEST(DeltaSync, BatchedAddsMatchOneByOneApply)
{
    const Workbench &wb = sharedWorkbench();
    const auto &u = wb.universe();
    CloudUpdateService &svc = sharedService();
    auto delta = svc.makeDelta(1, 2);

    // Trap queries: both results in v1 at distinct scores. The real
    // delta's ops on them are dropped.
    core::CacheContents v1 = svc.model(1).contents;
    std::unordered_map<u32, std::vector<core::ScoredPair>> byQuery;
    for (const auto &sp : v1.pairs)
        byQuery[sp.pair.query].push_back(sp);
    std::vector<u32> traps;
    for (const auto &sp : v1.pairs) {
        const auto &pairs = byQuery[sp.pair.query];
        if (pairs.size() == 2 && pairs[0].score != pairs[1].score &&
            std::find(traps.begin(), traps.end(), sp.pair.query) ==
                traps.end())
            traps.push_back(sp.pair.query);
        if (traps.size() == 2)
            break;
    }
    ASSERT_EQ(traps.size(), 2u) << "no query fits the trap";
    const auto onTrap = [&](const workload::PairRef &p) {
        return std::find(traps.begin(), traps.end(), p.query) != traps.end();
    };
    std::erase_if(delta.adds, [&](const auto &sp) { return onTrap(sp.pair); });
    std::erase_if(delta.evicts, onTrap);
    std::erase_if(delta.reranks,
                  [&](const auto &sp) { return onTrap(sp.pair); });
    ASSERT_FALSE(delta.adds.empty());
    ASSERT_FALSE(delta.evicts.empty());
    ASSERT_FALSE(delta.reranks.empty());

    std::vector<double> expectBox;
    for (const u32 q : traps) {
        auto pairs = byQuery[q];
        if (pairs[0].score < pairs[1].score)
            std::swap(pairs[0], pairs[1]);
        const core::ScoredPair p = pairs[0];
        const workload::PairRef n = pairs[1].pair;
        std::erase_if(v1.pairs, [&](const auto &sp) { return sp.pair == n; });
        delta.adds.push_back({n, p.score / 4, 1});
        delta.adds.push_back({p.pair, p.score / 2, 1}); // conflict, lower
        if (q == traps[0])
            delta.evicts.push_back(p.pair);
        delta.reranks.push_back({p.pair, p.score / 1000, 1}); // down
        expectBox.push_back(p.score / 4);
    }

    // Personalize every device the same way: the user clicked a pair
    // v2 evicts, one it re-ranks and one it adds (a conflict whose
    // cached score, 1 after the click, beats the community's).
    const auto personalized = [&](Cache &c) {
        SimTime t = 0;
        c.ps->loadCommunity(v1, t);
        c.ps->recordClick(delta.evicts.front(), t);
        c.ps->recordClick(delta.reranks.front().pair, t);
        c.ps->recordClick(delta.adds.front().pair, t);
    };
    Cache a(u), b(u);
    personalized(a);
    personalized(b);
    ASSERT_TRUE(core::encodeTable(a.ps->table()) ==
                core::encodeTable(b.ps->table()));

    const auto st = expectBatchMatchesOneByOne(a, b, delta);
    EXPECT_GE(st.conflicts, 3u);
    EXPECT_GE(st.keptAccessed, 1u);
    const auto box = a.ps->suggestIndex().suggest("", ~0u);
    for (std::size_t i = 0; i < traps.size(); ++i) {
        const auto entry =
            std::find_if(box.begin(), box.end(), [&](const auto &e) {
                return e.query == u.query(traps[i]).text;
            });
        ASSERT_NE(entry, box.end());
        EXPECT_EQ(entry->score, expectBox[i]) << "box must follow the table";
    }

    // A full install (fromVersion 0) onto the same personalized v1
    // tables: the reconcile drops stale pairs and keeps the clicked
    // ones, and every surviving pair merges as a conflict.
    const auto full = svc.makeDelta(0, 2);
    ASSERT_EQ(full.fromVersion, 0u);
    Cache c(u), d(u);
    personalized(c);
    personalized(d);
    const auto fst = expectBatchMatchesOneByOne(c, d, full);
    EXPECT_GT(fst.staleEvicted, 0u);
    EXPECT_GT(fst.keptAccessed, 0u);
    EXPECT_GT(fst.conflicts, 0u);
}

TEST(DeltaSync, ApplyEqualsFreshInstall)
{
    const Workbench &wb = sharedWorkbench();
    CloudUpdateService &svc = sharedService();

    // Device A: full install of v1, then the v1 -> v2 delta.
    device::MobileDevice devA(wb.universe());
    auto r1 = svc.syncDevice(devA, 1);
    ASSERT_TRUE(r1.ok);
    EXPECT_EQ(devA.communityVersion(), 1u);
    EXPECT_EQ(r1.apply.added, svc.model(1).contents.pairs.size());
    auto r2 = svc.syncDevice(devA, 2);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(devA.communityVersion(), 2u);
    EXPECT_GT(r2.apply.added + r2.apply.evicted + r2.apply.reranked, 0u)
        << "the two versions must actually differ";

    // Device B: straight to v2 (full install).
    device::MobileDevice devB(wb.universe());
    ASSERT_TRUE(svc.syncDevice(devB, 2).ok);

    EXPECT_EQ(canonicalTable(devA.pocketSearch()),
              canonicalTable(devB.pocketSearch()))
        << "delta path must land on the fresh-install table";
    EXPECT_EQ(devA.pocketSearch().pairs(), devB.pocketSearch().pairs());

    // The incremental delta must be smaller than a full install.
    EXPECT_LT(r2.deltaBytes,
              core::deltaWireBytes(svc.makeDelta(0, 2), wb.universe()));
}

TEST(DeltaSync, PersonalizationSurvivesSync)
{
    const Workbench &wb = sharedWorkbench();
    CloudUpdateService &svc = sharedService();
    const auto delta = svc.makeDelta(1, 2);
    ASSERT_FALSE(delta.evicts.empty())
        << "need an evicted pair to exercise retention";

    device::MobileDevice dev(wb.universe());
    ASSERT_TRUE(svc.syncDevice(dev, 1).ok);

    // The user clicks a pair v2 would evict: it must survive the sync.
    const workload::PairRef kept = delta.evicts.front();
    SimTime t = 0;
    dev.pocketSearch().recordClick(kept, t);

    const auto res = svc.syncDevice(dev, 2);
    ASSERT_TRUE(res.ok);
    EXPECT_GE(res.apply.keptAccessed, 1u);
    const auto state = dev.pocketSearch().findPair(kept);
    ASSERT_TRUE(state.has_value()) << "user pair evicted by the delta";
    EXPECT_TRUE(state->userAccessed);

    // And an accessed re-ranked pair only ratchets up, never down.
    if (!delta.reranks.empty()) {
        device::MobileDevice dev2(wb.universe());
        ASSERT_TRUE(svc.syncDevice(dev2, 1).ok);
        const auto &rr = delta.reranks.front();
        SimTime t2 = 0;
        dev2.pocketSearch().recordClick(rr.pair, t2);
        const double before =
            dev2.pocketSearch().findPair(rr.pair)->score;
        ASSERT_TRUE(svc.syncDevice(dev2, 2).ok);
        const double after =
            dev2.pocketSearch().findPair(rr.pair)->score;
        EXPECT_DOUBLE_EQ(after, std::max(before, rr.score));
    }
}

TEST(DeltaSync, FailedSyncLeavesDeviceUntouched)
{
    const Workbench &wb = sharedWorkbench();
    CloudUpdateService &svc = sharedService();

    device::MobileDevice dev(wb.universe());
    fault::FaultConfig fc;
    fc.radio.exchangeFailureRate = 1.0; // the cloud is unreachable
    fc.seed = 7;
    fault::FaultPlan faults(fc);
    dev.attachFaults(&faults);

    const u64 failedBefore =
        svc.metrics().snapshot().counterValue("server.syncs.failed");
    const auto res = svc.syncDevice(dev, 2);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.attempts, dev.config().retry.maxAttempts);
    EXPECT_EQ(dev.communityVersion(), 0u);
    EXPECT_EQ(dev.pocketSearch().pairs(), 0u);
    EXPECT_EQ(
        svc.metrics().snapshot().counterValue("server.syncs.failed"),
        failedBefore + 1);

    // Coverage returns: the same sync now lands.
    dev.attachFaults(nullptr);
    ASSERT_TRUE(svc.syncDevice(dev, 2).ok);
    EXPECT_EQ(dev.communityVersion(), 2u);
    EXPECT_GT(dev.pocketSearch().pairs(), 0u);
}

/** Thirds of the build log: the windowed services' three versions. */
workload::SearchLog
logThird(const Workbench &wb, std::size_t k)
{
    return slicedLog(wb, wb.buildLog().size() * k / 3);
}

/**
 * A window-2 service over the three log thirds (v1 evicted, v2 and v3
 * in window) and one device per sync base, each brought honestly to its
 * version while that version was published: never synced, v1
 * (evicted), v2, v3 (the target), a never-published v99, and an
 * escalated device whose bad-delta streak forces a full install.
 */
struct SyncCases
{
    SyncCases()
    {
        const Workbench &wb = sharedWorkbench();
        ServiceConfig cfg;
        cfg.maxVersions = 2;
        svc = std::make_unique<CloudUpdateService>(wb.universe(), cfg);
        const auto add = [&](const char *name) {
            devices.push_back(
                {name, std::make_unique<device::MobileDevice>(wb.universe())});
            return devices.back().second.get();
        };
        add("v0");
        for (std::size_t k = 1; k <= 3; ++k) {
            svc->ingest(logThird(wb, k));
            device::MobileDevice *d =
                add(k == 1 ? "v1-evicted" : k == 2 ? "v2" : "v3");
            EXPECT_TRUE(d->syncCommunityUpdate(svc->makeDelta(0, k)).ok);
        }
        add("v99-never-published")->setCommunityVersion(99);
        // Claims v2 over an empty table: each incremental delta verifies
        // but fails validation until the streak escalates.
        device::MobileDevice *liar = add("escalated");
        liar->setCommunityVersion(2);
        const auto delta = svc->makeDelta(2, 3);
        for (u32 i = 0; i < device::MobileDevice::kBadDeltaEscalation; ++i)
            EXPECT_TRUE(liar->syncCommunityUpdate(delta).rejected);
        EXPECT_TRUE(liar->needsFullInstall());
        EXPECT_FALSE(svc->hasVersion(1));
    }

    std::unique_ptr<CloudUpdateService> svc;
    std::vector<std::pair<std::string, std::unique_ptr<device::MobileDevice>>>
        devices;
};

const SyncCases &
syncCases()
{
    static const SyncCases cases;
    return cases;
}

/** The version a fresh tryMakeDelta diffs against for `dev`. */
u64
freshBase(const device::MobileDevice &dev)
{
    return dev.needsFullInstall() ? 0 : dev.communityVersion();
}

TEST(DeltaCache, EveryBaseServesWhatAFreshDeltaWould)
{
    const SyncCases &cases = syncCases();
    const CloudUpdateService &svc = *cases.svc;
    for (const auto &[name, proto] : cases.devices) {
        SCOPED_TRACE(name);
        const u64 base = freshBase(*proto);
        const auto fresh = svc.tryMakeDelta(base);
        ASSERT_TRUE(fresh.has_value());
        const core::CommunityDelta *served = svc.servedDelta(base);
        ASSERT_NE(served, nullptr);
        EXPECT_EQ(core::encodeDelta(*served), core::encodeDelta(*fresh));
        EXPECT_EQ(served, svc.servedDelta(base)) << "built once, then kept";

        device::MobileDevice cached(*proto);
        device::MobileDevice direct(*proto);
        CloudUpdateService::SyncAccounting acct;
        const auto got = svc.syncDetached(cached, &acct);
        const auto want = direct.syncCommunityUpdate(*fresh);
        EXPECT_TRUE(got.ok);
        EXPECT_EQ(got, want);
        EXPECT_EQ(acct.fullInstall, fresh->fromVersion == 0);
        EXPECT_EQ(acct.escalated, name == "escalated");
        EXPECT_EQ(acct.adds + acct.evicts + acct.reranks, fresh->ops());
        EXPECT_EQ(cached.communityVersion(), svc.latestVersion());
        EXPECT_EQ(canonicalTable(cached.pocketSearch()),
                  canonicalTable(direct.pocketSearch()));
        EXPECT_TRUE(cached.pocketSearch().sameCache(direct.pocketSearch()));
    }
}

TEST(DeltaCache, IngestDropsDeltasFromAnEvictedBase)
{
    const Workbench &wb = sharedWorkbench();
    ServiceConfig cfg;
    cfg.maxVersions = 2;
    CloudUpdateService svc(wb.universe(), cfg);
    svc.ingest(logThird(wb, 1));
    svc.ingest(logThird(wb, 2));
    device::MobileDevice dev(wb.universe());
    ASSERT_TRUE(svc.syncDevice(dev, 1).ok);
    const core::CommunityDelta *incremental = svc.servedDelta(1);
    ASSERT_NE(incremental, nullptr);
    EXPECT_EQ(incremental->fromVersion, 1u);

    svc.ingest(logThird(wb, 3)); // evicts v1
    ASSERT_FALSE(svc.hasVersion(1));
    const core::CommunityDelta *full = svc.servedDelta(1);
    ASSERT_NE(full, nullptr);
    EXPECT_EQ(full->fromVersion, 0u);
    EXPECT_EQ(full->toVersion, 3u);

    CloudUpdateService::SyncAccounting acct;
    const auto res = svc.syncDetached(dev, &acct);
    ASSERT_TRUE(res.ok);
    EXPECT_TRUE(acct.fullInstall);
    EXPECT_EQ(acct.adds, svc.model(3).contents.pairs.size());
    EXPECT_EQ(dev.communityVersion(), 3u);
    device::MobileDevice honest(wb.universe());
    ASSERT_TRUE(svc.syncDevice(honest).ok);
    EXPECT_EQ(canonicalTable(dev.pocketSearch()),
              canonicalTable(honest.pocketSearch()));
}

TEST(DeltaCache, ConcurrentSyncsMatchASerialRun)
{
    const SyncCases &cases = syncCases();
    // A fresh service of the same versions, so the first requests for
    // each (base, target) race to build it.
    const Workbench &wb = sharedWorkbench();
    ServiceConfig cfg;
    cfg.maxVersions = 2;
    CloudUpdateService svc(wb.universe(), cfg);
    for (std::size_t k = 1; k <= 3; ++k)
        svc.ingest(logThird(wb, k));

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kDevices = 24;
    const auto protoOf = [&](std::size_t i) -> const device::MobileDevice & {
        return *cases.devices[i % cases.devices.size()].second;
    };
    struct Run
    {
        std::vector<std::unique_ptr<device::MobileDevice>> devs;
        std::vector<device::MobileDevice::CommunitySyncResult> results;
        std::vector<CloudUpdateService::SyncAccounting> accts;
    };
    const auto prepare = [&] {
        Run r;
        for (std::size_t i = 0; i < kDevices; ++i)
            r.devs.push_back(
                std::make_unique<device::MobileDevice>(protoOf(i)));
        r.results.resize(kDevices);
        r.accts.resize(kDevices);
        return r;
    };

    Run parallel = prepare();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < kDevices; i += kThreads)
                parallel.results[i] = svc.syncDetached(
                    *parallel.devs[i], &parallel.accts[i]);
        });
    for (auto &w : workers)
        w.join();

    Run serial = prepare();
    for (std::size_t i = 0; i < kDevices; ++i)
        serial.results[i] = svc.syncDetached(*serial.devs[i], &serial.accts[i]);

    for (std::size_t i = 0; i < kDevices; ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(parallel.results[i].ok);
        EXPECT_EQ(parallel.results[i], serial.results[i]);
        const auto &a = parallel.accts[i];
        const auto &b = serial.accts[i];
        EXPECT_EQ(std::tie(a.ok, a.deltaBytes, a.adds, a.evicts, a.reranks,
                           a.fullInstall, a.escalated),
                  std::tie(b.ok, b.deltaBytes, b.adds, b.evicts, b.reranks,
                           b.fullInstall, b.escalated));
        EXPECT_TRUE(parallel.devs[i]->pocketSearch().sameCache(
            serial.devs[i]->pocketSearch()));
    }
}

TEST(DeltaSync, FleetRunThroughCloudServiceCarriesServerMetrics)
{
    const Workbench &wb = sharedWorkbench();
    ServiceConfig scfg;
    scfg.build.shards = 4;
    scfg.build.threads = 2;
    CloudUpdateService svc(wb.universe(), scfg);
    svc.ingest(wb.buildLog());

    harness::FleetRunConfig cfg;
    cfg.devices = 4;
    cfg.months = 2;
    cfg.cloud = &svc;

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);
    const auto r = runFleet(wb, cfg, collector);

    EXPECT_EQ(r.devices, cfg.devices);
    EXPECT_EQ(r.cloudSyncs, u64(cfg.devices))
        << "every device full-installs at month 0";
    EXPECT_EQ(r.cloudSyncFailures, 0u);
    EXPECT_GT(r.cacheHits, 0u) << "synced model must serve hits";

    // Cloud metrics folded into the same fleet snapshot as devices'.
    const auto snap = collector.fleetRegistry().snapshot();
    EXPECT_GT(snap.counterValue("device.queries"), 0u);
    EXPECT_EQ(snap.counterValue("server.syncs.ok"), u64(cfg.devices));
    EXPECT_EQ(snap.counterValue("server.deltas.served"),
              u64(cfg.devices));
    EXPECT_EQ(snap.counterValue("server.ingest.records"),
              wb.buildLog().size());
    bool sawVersionGauge = false;
    for (const auto &[name, value] : snap.gauges) {
        if (name == "server.model.version") {
            sawVersionGauge = true;
            EXPECT_EQ(value, double(svc.latestVersion()));
        }
    }
    EXPECT_TRUE(sawVersionGauge);
}

} // namespace
} // namespace pc::server
